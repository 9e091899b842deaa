//! The repository's benchmark: one command per workload that generates
//! the load from a seed, runs it, checks the answers and prints every
//! metric by name with its unit.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--smoke]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics (tracing off); `--trace 1` is
//! a separate traced run that prints the per-layer metrics and writes the
//! spans to `benchmark/out/<workload>.trace.json`. The last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; the exit code is non-zero if any operation
//! failed or any answer was wrong. See `README.md` for the glossary.

mod layers;
mod phases;
mod report;
mod rig;
mod spans;
mod stats;
mod workloads;

use std::path::Path;
use std::process::ExitCode;

/// Command-line options.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    /// Length of the measured windows of a run, in seconds, shared out
    /// among its phases.
    pub seconds: f64,
    pub trace: bool,
    /// Tiny data and a short window: checks that the harness works, never
    /// used for a claim.
    pub smoke: bool,
}

const USAGE: &str = "usage: --workload <net-point|embedded-join|mixed-snapshot|durable-lifecycle> \
                     [--seed <u64>] [--seconds <n>] [--trace <0|1>] [--smoke]";

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut explicit_seconds = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => opts.workload = value("--workload")?,
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned integer".to_string())?;
            }
            "--seconds" => {
                opts.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 600.0)
                    .ok_or("--seconds takes a number in (0, 600]")?;
                explicit_seconds = true;
            }
            "--trace" => {
                opts.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                };
            }
            "--smoke" => opts.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if opts.smoke && !explicit_seconds {
        opts.seconds = 1.0;
    }
    if !workloads::NAMES.contains(&opts.workload.as_str()) {
        return Err(format!("unknown workload {:?}", opts.workload));
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // All files the benchmark writes live under its own directory.
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }
    let outcome = workloads::run(&opts, &out_dir);
    print!("{}", outcome.table());
    println!("{}", outcome.result_line());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let o = parse(&args(
            "--workload net-point --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (o.workload.as_str(), o.seed, o.seconds),
            ("net-point", 7, 10.0)
        );
        assert!(o.trace && !o.smoke);
        let o = parse(&args("--workload mixed-snapshot --smoke")).unwrap();
        assert_eq!((o.seed, o.seconds, o.trace, o.smoke), (1, 1.0, false, true));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "",
            "--workload nope",
            "--workload net-point --seed x",
            "--workload net-point --seconds 0",
            "--workload net-point --trace 2",
            "--workload net-point --trace",
            "--workload net-point --frobnicate",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} parsed");
        }
    }
}
