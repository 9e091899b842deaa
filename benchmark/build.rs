//! Captures the commit and compiler the benchmark was built from, so every
//! result line can name them. Both fall back to "unknown" (the driver runs
//! the benchmark from a checkout that is not a git repository).

use std::process::Command;

fn capture(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    println!(
        "cargo:rustc-env=BENCH_RUSTC={}",
        capture(&rustc, &["--version"])
    );
    println!(
        "cargo:rustc-env=BENCH_COMMIT={}",
        capture("git", &["rev-parse", "--short=12", "HEAD"])
    );
    println!("cargo:rerun-if-changed=build.rs");
    println!("cargo:rerun-if-changed=../.git/HEAD");
}
