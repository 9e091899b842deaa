//! Crash-recovery smoke against a real process kill: run with
//! `cargo run --release -p bcq-bench --example recover_after_kill`.
//!
//! The parent re-execs itself as `--writer <dir>`: a durable server over
//! a [`DirLog`] in `<dir>`, `SyncPolicy::Always`, inserting sequential
//! rows forever and acknowledging each durable insert by renaming a
//! counter file into place. Once enough inserts are acknowledged the
//! parent SIGKILLs the writer mid-flight — no drop glue, no flush — then
//! recovers from the directory and asserts the contract that matters:
//!
//! * every **acknowledged** insert survived (`SyncPolicy::Always`), and
//! * the recovered rows are exactly the gap-free prefix `0..n` — replay
//!   stops at the first hole, never resurrects a torn suffix;
//!
//! then keeps writing on the recovered server, checkpoints, reopens, and
//! checks the post-crash writes survived a clean restart too — and that
//! the final checkpoint left one copy of the data: one file, `wal.log`,
//! holding the compacted base and nothing else, and a reopen that replays
//! no record past it. CI runs this as the recover-after-kill step.

use bcq_core::access::AccessSchema;
use bcq_core::prelude::*;
use bcq_service::{
    DirLog, DurabilityConfig, LogStorage, RecoveryReport, Server, ServerConfig, SyncPolicy,
};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const EVENTS: RelId = RelId(0);
/// Acknowledged inserts the parent waits for before pulling the plug.
const KILL_AFTER: u64 = 500;
/// The writer checkpoints every this many inserts, so the kill can land
/// inside a compaction (before its temp file is durable, before its
/// rename, before the directory's fsync), and recovery exercises a base
/// plus tail replay, not just a history from its first record.
const CHECKPOINT_EVERY: u64 = 100;

fn catalog() -> Arc<Catalog> {
    Catalog::from_names(&[("events", &["id", "v"])]).unwrap()
}

fn access() -> AccessSchema {
    let mut a = AccessSchema::new(catalog());
    a.add("events", &["id"], &["v"], 8).unwrap();
    a
}

fn open(dir: &Path) -> (Server, RecoveryReport) {
    let log: Arc<dyn LogStorage> = Arc::new(DirLog::open(dir).unwrap());
    let durability = DurabilityConfig {
        policy: SyncPolicy::Always,
    };
    let (server, report, _views) =
        Server::open(log, access(), ServerConfig::default(), durability, &[]).unwrap();
    (server, report)
}

/// The names and sizes of the files in `dir`, but the writer's
/// acknowledgement counter, by name.
fn file_sizes(dir: &Path) -> Vec<(String, u64)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap())
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            (!name.starts_with("acked")).then(|| (name, e.metadata().unwrap().len()))
        })
        .collect();
    files.sort();
    files
}

fn row(i: u64) -> [Value; 2] {
    [Value::int(i as i64), Value::int((i * 7 + 1) as i64)]
}

fn ack_path(dir: &Path) -> std::path::PathBuf {
    dir.join("acked")
}

fn read_acked(dir: &Path) -> u64 {
    std::fs::read_to_string(ack_path(dir))
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0)
}

/// The victim: write forever, acknowledge each durable insert, die by
/// SIGKILL whenever the parent decides.
fn writer(dir: &Path) -> ! {
    let (server, _) = open(dir);
    let tmp = dir.join("acked.tmp");
    for i in 0.. {
        server.insert("events", &row(i)).unwrap();
        // The insert returned, so its WAL record is fsynced
        // (`SyncPolicy::Always`) — only now may we acknowledge it.
        std::fs::write(&tmp, format!("{}", i + 1)).unwrap();
        std::fs::rename(&tmp, ack_path(dir)).unwrap();
        if (i + 1) % CHECKPOINT_EVERY == 0 {
            server.checkpoint().unwrap();
        }
    }
    unreachable!()
}

/// Recovered rows must be exactly `0..n` for some `n >= acked`.
fn assert_prefix(server: &Server, at_least: u64, label: &str) -> u64 {
    let snap = server.snapshot();
    let mut ids: Vec<i64> = snap
        .value_rows(EVENTS)
        .map(|r| match &r[0] {
            Value::Int(i) => *i,
            other => panic!("non-int id {other:?}"),
        })
        .collect();
    ids.sort_unstable();
    let n = ids.len() as u64;
    assert!(
        n >= at_least,
        "{label}: only {n} rows recovered, {at_least} were acknowledged durable"
    );
    let expect: Vec<i64> = (0..n as i64).collect();
    assert_eq!(
        ids, expect,
        "{label}: recovered ids are not a gap-free prefix"
    );
    n
}

fn main() {
    let mut args = std::env::args().skip(1);
    if let Some(flag) = args.next() {
        assert_eq!(
            flag, "--writer",
            "usage: recover_after_kill [--writer <dir>]"
        );
        let dir = std::path::PathBuf::from(args.next().expect("--writer needs a directory"));
        writer(&dir);
    }

    let dir = std::env::temp_dir().join(format!("bcq_recover_after_kill_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let exe = std::env::current_exe().unwrap();
    let mut child = std::process::Command::new(exe)
        .arg("--writer")
        .arg(&dir)
        .spawn()
        .unwrap();

    // Wait for the writer to get real work durable, then kill it cold.
    let deadline = Instant::now() + Duration::from_secs(120);
    while read_acked(&dir) < KILL_AFTER {
        assert!(Instant::now() < deadline, "writer made no progress");
        if let Some(status) = child.try_wait().unwrap() {
            panic!("writer exited early: {status}");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    child.kill().unwrap(); // SIGKILL: no flush, no drop glue
    child.wait().unwrap();
    let acked = read_acked(&dir);
    println!("killed writer with {acked} inserts acknowledged");

    // Recover: every acknowledged insert present, rows a gap-free prefix.
    let (server, report) = open(&dir);
    let recovered = assert_prefix(&server, acked, "after kill");
    println!(
        "recovered {recovered} rows (>= {acked} acknowledged) from a {}-byte base + {} replayed records",
        report.snapshot_bytes, report.replayed
    );

    // Life goes on: write past the crash, checkpoint, restart cleanly.
    for i in recovered..recovered + 50 {
        server.insert("events", &row(i)).unwrap();
    }
    let base = server.checkpoint().unwrap();
    drop(server);

    // The checkpoint left one copy of the data on the real directory: the
    // log, holding the base alone.
    assert_eq!(
        file_sizes(&dir),
        [("wal.log".to_string(), base)],
        "one log, the compacted base, after the checkpoint"
    );

    let (reopened, report) = open(&dir);
    assert_eq!(
        (report.snapshot_bytes, report.replayed, report.log_bytes),
        (base, 0, 0),
        "a reopen right after a checkpoint replays the base alone"
    );
    let final_rows = assert_prefix(&reopened, recovered + 50, "after clean restart");
    println!("clean restart serves {final_rows} rows — recover-after-kill OK");

    let _ = std::fs::remove_dir_all(&dir);
}
