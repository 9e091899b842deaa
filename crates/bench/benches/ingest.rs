//! Bulk-ingest throughput: the chunked fast path
//! ([`bcq_workload::source::load`] → `BulkLoader` → deferred sort-based
//! index build) against row-at-a-time maintained inserts
//! (`Database::insert`, which keeps every index fresh), both under the
//! repo's durable configuration (a real [`DirLog`] with
//! [`SyncPolicy::Always`], the policy `recover_after_kill` proves the
//! crash contract for). Emits `BENCH_ingest.json` with rows/s, bytes/s,
//! the load/index-build split, and the peak heap high-water mark of the
//! load — CI's smoke gate asserts the fast path stays ≥ 5× the maintained
//! path; the acceptance run uses the full ≥ 1M-row size.
//!
//! Generation cost is excluded from both sides (each chunk is filled
//! outside the timed window), so the ratio isolates the ingest machinery
//! under a matched durability contract: the maintained path pays one WAL
//! record — framed, CRC'd, fsynced — plus in-place maintenance of every
//! lineitem index per row, while the fast path pays one WAL record per
//! 8K-row chunk and one deferred sort-based index build per load. The
//! per-row metrics keep the split visible: `bulk_load_ns_per_row` +
//! `index_build_ns_per_row` is the machinery cost, and the gap to
//! `maintained_insert_ns_per_row` is dominated by per-row sync, which is
//! exactly the cost the chunked WAL bracket amortizes.
//!
//! The index build has a lane of its own (`ingest/index_build_ns_per_row`,
//! ≥ 15 samples): `Database::build_indexes` over the loaded `lineitem`,
//! its indices dropped before each sample, alternating with the same
//! constraints built one `HashIndex::build` after another on this thread
//! (`ingest/index_build_serial_ns_per_row`). Their ratio,
//! `index_build_parallel_speedup`, is what the second core buys; every
//! derived rate uses the lane's median as the load's build time.
//!
//! The maintained side is measured on a prefix of the stream
//! (`maintained_rows_measured`) at full size — per-row rates stabilize
//! within a few chunks, and the prefix's smaller index maps *under*state
//! the maintained cost, so the reported speedup is conservative.

use bcq_core::prelude::Value;
use bcq_service::{DirLog, LogStorage, SyncPolicy, WalWriter};
use bcq_storage::{Database, HashIndex};
use bcq_workload::{source, tpch};
use criterion::{
    criterion_group, criterion_main, record_derived, record_metric, smoke_mode, summarize,
    Criterion,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Instant;

static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

/// Tracks the live-bytes high-water mark (the measure that catches a
/// doubling-growth overshoot or a buffered row-major copy of the chunk
/// stream, which resident-size throughput numbers alone would hide).
struct Tracking;

// SAFETY: delegates to the system allocator.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        let now = LIVE.fetch_add(l.size() as i64, Ordering::Relaxed) + l.size() as i64;
        PEAK.fetch_max(now, Ordering::Relaxed);
        unsafe { System.alloc(l) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        LIVE.fetch_sub(l.size() as i64, Ordering::Relaxed);
        unsafe { System.dealloc(p, l) }
    }
}

#[global_allocator]
static A: Tracking = Tracking;

/// Resets the high-water mark to the current live count and returns the
/// peak *delta* accumulated by `f`.
fn peak_during<R>(f: impl FnOnce() -> R) -> (R, i64) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let r = f();
    (r, PEAK.load(Ordering::Relaxed) - before)
}

/// A fresh durable database: all declared indices built, a `DirLog`-backed
/// WAL attached with the crash-proof policy (`Always`: every record
/// fsynced before its append returns).
fn durable_db(ds: &bcq_workload::Dataset, dir: &std::path::Path) -> Database {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create WAL dir");
    let log: Arc<dyn LogStorage> = Arc::new(DirLog::open(dir).expect("open DirLog"));
    let mut db = Database::new(Arc::clone(&ds.catalog));
    db.set_wal(Some(Arc::new(WalWriter::new(log, SyncPolicy::Always, 1))));
    db.build_indexes(&ds.access);
    db
}

fn bench(c: &mut Criterion) {
    let _ = c; // hand-timed: one ≥1M-row load is not an iterable closure
    let ds = tpch::dataset();
    // SF 100 ≈ 1.2M lineitems (the acceptance size); smoke stays small
    // enough for CI but large enough that the ≥5× gate is meaningful.
    let sf = if smoke_mode() { 2.0 } else { 100.0 };
    let samples = if smoke_mode() { 1 } else { 2 };
    let lineitem = tpch::sources(sf, 0xBC0).pop().expect("lineitem source");
    let rows = lineitem.total_rows();
    let arity = lineitem.arity();
    let lineitem_rel = ds
        .catalog
        .require_rel("lineitem")
        .expect("lineitem in catalog");
    let wal_dir = PathBuf::from(format!("target/ingest_bench_wal_{}", std::process::id()));

    // --- Fast path: chunked bulk load, then one deferred index build. ---
    let mut load_ns = f64::INFINITY;
    let mut peak_bytes = i64::MAX;
    let mut cell_bytes = 0u64;
    for _ in 0..samples {
        let mut db = durable_db(&ds, &wal_dir);
        let mut cols: Vec<Vec<Value>> = vec![Vec::new(); arity];
        let ((l_ns, bytes), peak) = peak_during(|| {
            let mut l_ns = 0f64;
            let bytes;
            {
                let mut loader = db.bulk_loader(lineitem_rel);
                loader.reserve_rows(rows as usize);
                let mut at = 0u64;
                while at < rows {
                    let n = source::DEFAULT_CHUNK_ROWS.min((rows - at) as usize);
                    cols.iter_mut().for_each(Vec::clear);
                    lineitem.fill_chunk(at, n, &mut cols);
                    let t = Instant::now();
                    loader.push_chunk_columns(&cols);
                    l_ns += t.elapsed().as_nanos() as f64;
                    at += n as u64;
                }
                bytes = loader.stats().cell_bytes;
            } // drop closes the WAL bulk bracket (BulkEnd + sync)
            db.build_indexes(&ds.access); // rebuilds only lineitem's indices
            (l_ns, bytes)
        });
        load_ns = load_ns.min(l_ns);
        peak_bytes = peak_bytes.min(peak);
        cell_bytes = bytes;
    }

    // --- The index build alone: every core against this thread. ---
    // No WAL (the `EnsureIndex` records and their fsyncs are not what is
    // measured); an empty bulk bracket drops lineitem's indices, outside
    // the clock.
    let mut db = Database::new(Arc::clone(&ds.catalog));
    source::load(&mut db, lineitem.as_ref());
    let lineitem_specs: Vec<_> = ds
        .access
        .constraints()
        .iter()
        .filter(|c| c.relation() == lineitem_rel)
        .collect();
    let build_samples = if smoke_mode() { 5 } else { 15 };
    let (mut parallel, mut serial) = (Vec::new(), Vec::new());
    for _ in 0..build_samples {
        drop(db.bulk_loader(lineitem_rel));
        let t = Instant::now();
        db.build_indexes(&ds.access);
        parallel.push(t.elapsed().as_nanos() as f64 / rows as f64);
        drop(db.bulk_loader(lineitem_rel));
        let table = db.table(lineitem_rel);
        let t = Instant::now();
        let built: Vec<HashIndex> = lineitem_specs
            .iter()
            .map(|c| HashIndex::build(table, c.x(), c.y()))
            .collect();
        serial.push(t.elapsed().as_nanos() as f64 / rows as f64);
        drop(built);
    }
    drop(db);
    let (parallel, serial) = (summarize(&mut parallel, 1), summarize(&mut serial, 1));
    let build_ns = parallel.ns * rows as f64;
    let bulk_ns = load_ns + build_ns;

    // --- Slow path: the same stream, one maintained insert per row. ---
    // A prefix is enough: per-row cost stabilizes within a few chunks, and
    // a prefix's smaller index maps bias it *down* (conservative ratio).
    let maintained_rows = rows.min(32_768);
    let mut maintained_ns = f64::INFINITY;
    for _ in 0..samples {
        let mut db = durable_db(&ds, &wal_dir);
        let mut cols: Vec<Vec<Value>> = vec![Vec::new(); arity];
        let mut row = Vec::with_capacity(arity);
        let mut ns = 0f64;
        let mut at = 0u64;
        while at < maintained_rows {
            let n = source::DEFAULT_CHUNK_ROWS.min((maintained_rows - at) as usize);
            cols.iter_mut().for_each(Vec::clear);
            lineitem.fill_chunk(at, n, &mut cols);
            let t = Instant::now();
            for r in 0..n {
                row.clear();
                row.extend(cols.iter().map(|c| c[r].clone()));
                db.insert("lineitem", &row).unwrap();
            }
            ns += t.elapsed().as_nanos() as f64;
            at += n as u64;
        }
        maintained_ns = maintained_ns.min(ns);
    }
    let _ = std::fs::remove_dir_all(&wal_dir);

    let per_row_bulk = bulk_ns / rows as f64;
    let per_row_maintained = maintained_ns / maintained_rows as f64;
    let secs = bulk_ns / 1e9;
    record_metric("ingest/bulk_load_ns_per_row", load_ns / rows as f64);
    parallel.record("ingest/index_build_ns_per_row");
    serial.record("ingest/index_build_serial_ns_per_row");
    record_metric("ingest/maintained_insert_ns_per_row", per_row_maintained);
    record_derived("ingest_rows", rows as f64);
    record_derived("ingest_rows_per_s", rows as f64 / secs);
    record_derived("ingest_bytes_per_s", cell_bytes as f64 / secs);
    record_derived("ingest_index_build_fraction", build_ns / bulk_ns);
    record_derived("index_build_parallel_speedup", serial.ns / parallel.ns);
    record_derived("ingest_peak_bytes", peak_bytes as f64);
    record_derived("maintained_rows_measured", maintained_rows as f64);
    record_derived(
        "speedup_bulk_vs_maintained",
        per_row_maintained / per_row_bulk,
    );
    println!(
        "ingest: {rows} lineitems | bulk {:.0} ms (build {:.0}%) = {:.2} Mrows/s, \
         {:.1} MB/s, peak {:.1} MB | maintained {:.2} us/row over {} rows | speedup {:.1}x",
        bulk_ns / 1e6,
        100.0 * build_ns / bulk_ns,
        rows as f64 / secs / 1e6,
        cell_bytes as f64 / secs / 1e6,
        peak_bytes as f64 / 1e6,
        per_row_maintained / 1e3,
        maintained_rows,
        per_row_maintained / per_row_bulk,
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);
