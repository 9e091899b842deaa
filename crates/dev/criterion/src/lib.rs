#![warn(missing_docs)]
//! Offline stand-in for the `criterion` crate.
//!
//! This repository builds without network access, so the Criterion API
//! surface our benches use — `Criterion`, `benchmark_group`,
//! `bench_function`, `Bencher::iter`, the group tuning knobs, and the
//! `criterion_group!`/`criterion_main!` macros — is implemented locally.
//!
//! Measurement model: each `bench_function` warms up for the configured
//! warm-up time, then runs timed batches until the measurement time is
//! spent (minimum `sample_size` samples), and reports the minimum, median,
//! and mean per-iteration time. No statistics beyond that — the point is a
//! stable, dependency-free number on stdout, not confidence intervals.
//!
//! **Machine-readable output.** Every measurement is also recorded in a
//! process-global registry; `criterion_main!` flushes it to
//! `BENCH_<bench-name>.json` at the repository root (the nearest ancestor
//! directory containing `Cargo.lock`), so the perf trajectory is tracked
//! across PRs instead of living in commit messages. Benches can add their
//! own numbers with [`record_metric`] (e.g. hand-timed multi-threaded
//! throughput) and [`record_derived`] (dimensionless ratios like
//! speedups).
//!
//! **Smoke mode.** Setting the `BENCH_SMOKE` environment variable forces
//! one sample of one batch with no warm-up — CI uses it to keep bench
//! paths compiling *and running* without paying measurement time.

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded measurement.
#[derive(Debug, Clone)]
struct Record {
    id: String,
    min_ns: f64,
    median_ns: f64,
    mean_ns: f64,
    p90_ns: f64,
    p99_ns: f64,
    samples: usize,
    iters_per_sample: u64,
}

/// Nearest-rank quantile of an ascending-sorted slice.
fn pct(sorted: &[f64], q: f64) -> f64 {
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

static RESULTS: Mutex<Vec<Record>> = Mutex::new(Vec::new());
static DERIVED: Mutex<Vec<(String, f64)>> = Mutex::new(Vec::new());

/// `true` if `BENCH_SMOKE` is set: run everything once, skip measurement.
pub fn smoke_mode() -> bool {
    std::env::var_os("BENCH_SMOKE").is_some()
}

/// Records an externally measured metric (nanoseconds per operation) into
/// the JSON report — for measurements the `Bencher` loop cannot express,
/// like wall-clock throughput across a thread pool.
pub fn record_metric(id: impl Into<String>, ns_per_op: f64) {
    record_metric_sampled(id, ns_per_op, 1, 1);
}

/// A hand-rolled measurement: the per-sample ns/op distribution summary
/// plus the sampling that was **actually** performed (so smoke-mode
/// collapse stays visible in the JSON report's metadata).
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    /// Median nanoseconds per operation across the samples.
    pub ns: f64,
    /// Fastest sample's ns/op — the noise floor.
    pub min_ns: f64,
    /// Mean ns/op across the samples.
    pub mean_ns: f64,
    /// 90th-percentile sample's ns/op (nearest rank).
    pub p90_ns: f64,
    /// 99th-percentile sample's ns/op — the tail the median hides.
    pub p99_ns: f64,
    /// Samples actually taken (1 under [`smoke_mode`]).
    pub samples: usize,
    /// Iterations actually run per sample (1 under [`smoke_mode`]).
    pub iters: u64,
}

impl Measured {
    /// Records this measurement under `id` with its true per-sample
    /// distribution (min / median / mean differ unless only one sample
    /// ran) and sampling metadata.
    pub fn record(&self, id: impl Into<String>) {
        let id = id.into();
        eprintln!("{id:<50} recorded {:>12.1} ns/op", self.ns);
        RESULTS.lock().unwrap().push(Record {
            id,
            min_ns: self.min_ns,
            median_ns: self.ns,
            mean_ns: self.mean_ns,
            p90_ns: self.p90_ns,
            p99_ns: self.p99_ns,
            samples: self.samples,
            iters_per_sample: self.iters,
        });
    }
}

/// Hand-rolled companion to the `Bencher` loop for benches that need the
/// raw number (e.g. to derive a ratio before recording): the median ns/op
/// over `samples` runs of `iters` calls to `f` (passed the global call
/// index). Collapses to a single call of a single sample under
/// [`smoke_mode`] — the returned [`Measured`] carries the sampling that
/// actually ran, so reports stay honest either way.
pub fn measure_median_ns(samples: usize, iters: usize, mut f: impl FnMut(usize)) -> Measured {
    let (samples, iters) = if smoke_mode() {
        (1, 1)
    } else {
        (samples, iters)
    };
    let mut per_sample: Vec<f64> = (0..samples)
        .map(|s| {
            let start = Instant::now();
            for i in 0..iters {
                f(s * iters + i);
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    summarize(&mut per_sample, iters as u64)
}

/// The distribution summary of per-sample ns/op timings (sorted in place;
/// at least one), each sample having run `iters` iterations.
pub fn summarize(per_sample: &mut [f64], iters: u64) -> Measured {
    per_sample.sort_by(|a, b| a.total_cmp(b));
    Measured {
        ns: per_sample[per_sample.len() / 2],
        min_ns: per_sample[0],
        mean_ns: per_sample.iter().sum::<f64>() / per_sample.len() as f64,
        p90_ns: pct(per_sample, 0.90),
        p99_ns: pct(per_sample, 0.99),
        samples: per_sample.len(),
        iters,
    }
}

/// [`record_metric`] with explicit sampling metadata (the caller took
/// `samples` medians of `iters_per_sample`-operation batches).
pub fn record_metric_sampled(
    id: impl Into<String>,
    ns_per_op: f64,
    samples: usize,
    iters_per_sample: u64,
) {
    let id = id.into();
    eprintln!("{id:<50} recorded {ns_per_op:>12.1} ns/op");
    RESULTS.lock().unwrap().push(Record {
        id,
        min_ns: ns_per_op,
        median_ns: ns_per_op,
        mean_ns: ns_per_op,
        p90_ns: ns_per_op,
        p99_ns: ns_per_op,
        samples,
        iters_per_sample,
    });
}

/// Records a derived, dimensionless quantity (a speedup ratio, a scaling
/// factor) under `key` in the report's `derived` object.
pub fn record_derived(key: impl Into<String>, value: f64) {
    let key = key.into();
    eprintln!("{key:<50} = {value:.3}");
    DERIVED.lock().unwrap().push((key, value));
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

/// The bench binary's logical name: executable file stem minus the
/// trailing `-<metadata hash>` cargo appends.
fn bench_name() -> String {
    let stem = std::env::args()
        .next()
        .map(PathBuf::from)
        .and_then(|p| p.file_stem().map(|s| s.to_string_lossy().into_owned()))
        .unwrap_or_else(|| "bench".to_string());
    match stem.rsplit_once('-') {
        Some((name, hash)) if hash.len() == 16 && hash.chars().all(|c| c.is_ascii_hexdigit()) => {
            name.to_string()
        }
        _ => stem,
    }
}

/// The nearest ancestor directory containing `Cargo.lock` (the workspace
/// root), falling back to the current directory.
fn repo_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if dir.join("Cargo.lock").is_file() {
            return dir;
        }
        if !dir.pop() {
            return std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
        }
    }
}

/// Flushes all recorded measurements to `BENCH_<bench-name>.json` at the
/// repository root. Called automatically by `criterion_main!`.
pub fn write_json_report() {
    let results = RESULTS.lock().unwrap();
    let derived = DERIVED.lock().unwrap();
    if results.is_empty() && derived.is_empty() {
        return;
    }
    let name = bench_name();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = String::with_capacity(1024);
    out.push_str("{\n");
    out.push_str(&format!("  \"bench\": \"{}\",\n", json_escape(&name)));
    out.push_str(&format!("  \"cores\": {cores},\n"));
    out.push_str(&format!("  \"smoke\": {},\n", smoke_mode()));
    out.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let ops = if r.median_ns > 0.0 {
            1e9 / r.median_ns
        } else {
            f64::INFINITY
        };
        out.push_str(&format!(
            "    {{\"id\": \"{}\", \"min_ns\": {}, \"median_ns\": {}, \"mean_ns\": {}, \
             \"p90_ns\": {}, \"p99_ns\": {}, \
             \"ops_per_sec\": {}, \"samples\": {}, \"iters_per_sample\": {}}}{}\n",
            json_escape(&r.id),
            fmt_f64(r.min_ns),
            fmt_f64(r.median_ns),
            fmt_f64(r.mean_ns),
            fmt_f64(r.p90_ns),
            fmt_f64(r.p99_ns),
            fmt_f64(ops),
            r.samples,
            r.iters_per_sample,
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"derived\": {");
    for (i, (k, v)) in derived.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}\": {}", json_escape(k), fmt_f64(*v)));
    }
    out.push_str("}\n}\n");

    let path = repo_root().join(format!("BENCH_{name}.json"));
    match std::fs::write(&path, out) {
        Ok(()) => eprintln!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\nfailed to write {}: {e}", path.display()),
    }
}

/// Re-export so `criterion::black_box` keeps working like upstream.
pub use std::hint::black_box;

/// Top-level benchmark driver.
#[derive(Debug)]
pub struct Criterion {
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 20,
            warm_up_time: Duration::from_millis(300),
            measurement_time: Duration::from_secs(2),
        }
    }
}

impl Criterion {
    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        eprintln!("\n== {name} ==");
        BenchmarkGroup {
            _parent: self,
            name,
            sample_size: 20,
            warm_up_time: Duration::from_millis(300),
            measurement_time: Duration::from_secs(2),
        }
    }

    /// Benchmarks a single function outside any group.
    pub fn bench_function(
        &mut self,
        id: impl Into<String>,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        run_bench(
            &id.into(),
            self.sample_size,
            self.warm_up_time,
            self.measurement_time,
            f,
        );
        self
    }
}

/// A group of benchmarks sharing tuning parameters.
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
}

impl BenchmarkGroup<'_> {
    /// Number of samples to collect per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Warm-up time before measurement starts.
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.warm_up_time = d;
        self
    }

    /// Total time to spend measuring each benchmark.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement_time = d;
        self
    }

    /// Runs one benchmark within the group.
    pub fn bench_function(
        &mut self,
        id: impl Into<String>,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let id = format!("{}/{}", self.name, id.into());
        run_bench(
            &id,
            self.sample_size,
            self.warm_up_time,
            self.measurement_time,
            f,
        );
        self
    }

    /// Ends the group (upstream flushes reports here; we print eagerly).
    pub fn finish(self) {}
}

/// Passed to the closure of `bench_function`; drives the timing loop.
pub struct Bencher {
    mode: BencherMode,
    /// Accumulated samples of (iterations, elapsed).
    samples: Vec<(u64, Duration)>,
}

enum BencherMode {
    /// Calibration pass: determine iterations per batch.
    Calibrate { iters_hint: u64 },
    /// Timed pass: run exactly `iters` iterations.
    Measure { iters: u64 },
}

impl Bencher {
    /// Times `f`, batching iterations so that per-batch timer overhead is
    /// negligible.
    pub fn iter<O>(&mut self, mut f: impl FnMut() -> O) {
        match self.mode {
            BencherMode::Calibrate { ref mut iters_hint } => {
                // Measure one call to size the batches.
                let start = Instant::now();
                black_box(f());
                let once = start.elapsed().max(Duration::from_nanos(50));
                // Aim for batches of ~10 ms.
                let per_batch = (10_000_000u128 / once.as_nanos()).clamp(1, 1_000_000) as u64;
                *iters_hint = per_batch;
            }
            BencherMode::Measure { iters } => {
                let start = Instant::now();
                for _ in 0..iters {
                    black_box(f());
                }
                self.samples.push((iters, start.elapsed()));
            }
        }
    }
}

fn run_bench(
    id: &str,
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
    mut f: impl FnMut(&mut Bencher),
) {
    // Smoke mode: one sample of one iteration, no warm-up — CI keeps the
    // bench path *running*, not just compiling, without paying for it.
    let (sample_size, warm_up_time, measurement_time) = if smoke_mode() {
        (1, Duration::ZERO, Duration::ZERO)
    } else {
        (sample_size, warm_up_time, measurement_time)
    };

    // Calibration: how many iterations fit a ~10 ms batch?
    let mut b = Bencher {
        mode: BencherMode::Calibrate { iters_hint: 1 },
        samples: Vec::new(),
    };
    f(&mut b);
    let iters = if smoke_mode() {
        1
    } else {
        match b.mode {
            BencherMode::Calibrate { iters_hint } => iters_hint,
            BencherMode::Measure { .. } => unreachable!(),
        }
    };

    // Warm-up.
    let warm_start = Instant::now();
    while warm_start.elapsed() < warm_up_time {
        let mut wb = Bencher {
            mode: BencherMode::Measure { iters },
            samples: Vec::new(),
        };
        f(&mut wb);
        if wb.samples.is_empty() {
            break; // closure never called iter(); nothing to measure
        }
    }

    // Measurement.
    let mut samples: Vec<Duration> = Vec::new();
    let meas_start = Instant::now();
    while samples.len() < sample_size || meas_start.elapsed() < measurement_time {
        let mut mb = Bencher {
            mode: BencherMode::Measure { iters },
            samples: Vec::new(),
        };
        f(&mut mb);
        if mb.samples.is_empty() {
            break;
        }
        for (n, elapsed) in mb.samples {
            samples.push(elapsed / n.max(1) as u32);
        }
        if meas_start.elapsed() > measurement_time * 4 {
            break; // hard stop for very slow benches
        }
    }

    if samples.is_empty() {
        eprintln!("{id:<50} (no samples)");
        return;
    }
    let mut ns: Vec<f64> = samples.iter().map(|d| d.as_nanos() as f64).collect();
    let m = summarize(&mut ns, iters);
    let d = |ns: f64| Duration::from_nanos(ns as u64);
    eprintln!(
        "{id:<50} min {:>10.2?}  median {:>10.2?}  mean {:>10.2?}  ({} samples x {iters} iters)",
        d(m.min_ns),
        d(m.ns),
        d(m.mean_ns),
        m.samples
    );
    RESULTS.lock().unwrap().push(Record {
        id: id.to_string(),
        min_ns: m.min_ns,
        median_ns: m.ns,
        mean_ns: m.mean_ns,
        p90_ns: m.p90_ns,
        p99_ns: m.p99_ns,
        samples: m.samples,
        iters_per_sample: iters,
    });
}

/// Declares a benchmark group function, mirroring upstream's simple form.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the benchmark binary's `main`, mirroring upstream — and, on
/// exit, flushes the measurement registry to `BENCH_<name>.json` at the
/// repository root.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
            $crate::write_json_report();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_reports() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        group
            .sample_size(3)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(5));
        let mut calls = 0u64;
        group.bench_function("count", |b| {
            b.iter(|| {
                calls += 1;
                black_box(calls)
            })
        });
        group.finish();
        assert!(calls > 0);
    }

    #[test]
    fn measure_median_keeps_the_sample_distribution() {
        // Every sample runs every iteration, with the global call index.
        let mut calls = Vec::new();
        let m = measure_median_ns(5, 50, |i| calls.push(i));
        assert_eq!((m.samples, m.iters), (5, 50));
        assert_eq!(calls, (0..250).collect::<Vec<_>>());

        // The summary, on fixed unsorted samples with a slow tail: min
        // from the fastest, median from the middle, mean pulled up, the
        // percentiles by nearest rank.
        let mut ns = [40.0, 10.0, 1000.0, 20.0, 30.0];
        let m = summarize(&mut ns, 7);
        assert_eq!((m.min_ns, m.ns, m.mean_ns), (10.0, 30.0, 220.0));
        assert_eq!((m.p90_ns, m.p99_ns), (1000.0, 1000.0));
        assert_eq!((m.samples, m.iters), (5, 7));

        let mut ns: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let m = summarize(&mut ns, 1);
        assert_eq!((m.min_ns, m.ns, m.mean_ns), (1.0, 51.0, 50.5));
        assert_eq!((m.p90_ns, m.p99_ns), (90.0, 99.0));

        let m = summarize(&mut [5.0], 1);
        assert_eq!(
            (m.min_ns, m.ns, m.mean_ns, m.p90_ns, m.p99_ns),
            (5.0, 5.0, 5.0, 5.0, 5.0)
        );
    }

    #[test]
    fn top_level_bench_function() {
        let mut c = Criterion {
            sample_size: 2,
            warm_up_time: Duration::from_millis(1),
            measurement_time: Duration::from_millis(2),
        };
        let mut ran = false;
        c.bench_function("direct", |b| {
            b.iter(|| {
                ran = true;
            })
        });
        assert!(ran);
    }
}
