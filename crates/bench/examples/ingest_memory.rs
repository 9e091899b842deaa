//! Constant-memory proof for scale-factor streaming generation: run with
//! `cargo run --release -p bcq-bench --example ingest_memory`
//! (`BENCH_SMOKE=1` for the reduced CI size).
//!
//! A counting global allocator tracks the live-bytes high-water mark
//! while a [`RowSource`](bcq_workload::RowSource) streams chunk-at-a-time
//! through reused column buffers. The proof is differential: the peak
//! while streaming N rows must match the peak while streaming N/8 rows —
//! if generation buffered rows proportional to the scale factor, the
//! 8× longer stream would show an 8× higher water mark. Full mode streams
//! ≥ 10M rows (TPCH SF 850); smoke keeps the same shape at CI size.
//!
//! A second check covers the ingest side of the contract: a chunked bulk
//! load with an exact upfront [`reserve_rows`](bcq_storage::BulkLoader)
//! must not overshoot — the peak of the load stays within a sliver of the
//! bytes still live when it finishes, so there is no doubling-growth spike
//! and no row-major staging copy of the stream.
//!
//! A third check bounds what the indices cost beside the data: the live
//! bytes `build_indexes` adds over a whole TPCH instance (SF 32, or SF 8
//! in smoke mode), per stored row, and how far `HashIndex::approx_bytes` —
//! the number a running server exports as `bcq_index_bytes` — is from what
//! the allocator counted.

use bcq_core::prelude::Value;
use bcq_storage::Database;
use bcq_workload::{source, tpch, RowSource};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Instant;

static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

/// Counts live bytes and their high-water mark.
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

/// Runs `f`, returning its result, the peak *delta* over the live bytes
/// at entry, and the live delta at exit.
fn deltas_during<R>(f: impl FnOnce() -> R) -> (R, i64, i64) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let r = f();
    (
        r,
        PEAK.load(Ordering::Relaxed) - before,
        LIVE.load(Ordering::Relaxed) - before,
    )
}

/// Streams the first `rows` rows of `src` through reused chunk buffers,
/// returning a checksum (so the work cannot be optimized away).
fn stream(src: &dyn RowSource, rows: u64, cols: &mut [Vec<Value>]) -> u64 {
    let mut sum = 0u64;
    let mut at = 0u64;
    while at < rows {
        let n = source::DEFAULT_CHUNK_ROWS.min((rows - at) as usize);
        cols.iter_mut().for_each(Vec::clear);
        src.fill_chunk(at, n, cols);
        for c in cols.iter() {
            for v in c {
                if let Value::Int(i) = v {
                    sum = sum.wrapping_add(*i as u64);
                }
            }
        }
        at += n as u64;
    }
    sum
}

fn main() {
    let smoke = std::env::var_os("BENCH_SMOKE").is_some();
    // SF 850 ≈ 10.2M lineitems; the same 8×-differential shape at CI size.
    let sf = if smoke { 8.0 } else { 850.0 };
    let lineitem = tpch::sources(sf, 0xBC0).pop().expect("lineitem source");
    let rows = lineitem.total_rows();
    let arity = lineitem.arity();
    assert!(
        smoke || rows >= 10_000_000,
        "full mode must stream ≥ 10M rows"
    );

    let mut cols: Vec<Vec<Value>> = vec![Vec::new(); arity];
    // Warm the buffers to their steady-state capacity so the measured
    // passes see only what streaming itself allocates.
    stream(
        lineitem.as_ref(),
        source::DEFAULT_CHUNK_ROWS as u64,
        &mut cols,
    );

    let (_, short_peak, _) = deltas_during(|| stream(lineitem.as_ref(), rows / 8, &mut cols));
    let t = Instant::now();
    let (sum, full_peak, _) = deltas_during(|| stream(lineitem.as_ref(), rows, &mut cols));
    let ns = t.elapsed().as_nanos() as f64;
    println!(
        "generation: {rows} rows (sf {sf}, checksum {sum:x}) at {:.0} ns/row; \
         peak delta {:.2} MB streaming all rows vs {:.2} MB streaming 1/8",
        ns / rows as f64,
        full_peak as f64 / 1e6,
        short_peak as f64 / 1e6,
    );
    // Constant memory: the high-water mark must not grow with the stream
    // length. Per-chunk string churn gives the short pass a few transient
    // MB too, so the bound is a ratio plus a fixed one-chunk allowance.
    assert!(
        full_peak <= short_peak + 4 * 1024 * 1024 && full_peak <= short_peak * 2,
        "peak grew with stream length: {short_peak} -> {full_peak} bytes"
    );

    // Ingest-side: an exactly-reserved chunked bulk load must not
    // overshoot what it keeps. (Small SF — this bounds allocator behavior,
    // not throughput; `BENCH_ingest.json` carries the throughput numbers.)
    let ds = tpch::dataset();
    let small = tpch::sources(2.0, 0xBC0).pop().expect("lineitem source");
    let mut db = Database::new(Arc::clone(&ds.catalog));
    let (stats, load_peak, load_live) = deltas_during(|| source::load(&mut db, small.as_ref()));
    println!(
        "bulk load: {} rows, {} cell bytes; peak delta {:.2} MB vs {:.2} MB kept",
        stats.rows,
        stats.cell_bytes,
        load_peak as f64 / 1e6,
        load_live as f64 / 1e6,
    );
    assert!(
        load_peak <= load_live + load_live / 8 + 4 * 1024 * 1024,
        "bulk load overshot its final footprint: peak {load_peak} vs kept {load_live}"
    );

    // Index-side: an entry costs what it holds. 61 indices over eight
    // tables cost 202 B per stored row at SF 8 with one- and two-column
    // keys stored as their cells (288 with a 40-byte `RowBuf` key each).
    let mut db = tpch::generate(if smoke { 8.0 } else { 32.0 }, 0xBC0);
    let access = tpch::access_schema();
    let (_, _, index_live) = deltas_during(|| db.build_indexes(&access));
    let rows = db.total_tuples();
    let (keys, reported) = db.index_footprint();
    println!(
        "index build: {} indices, {keys} keys over {rows} rows; {:.2} MB live = {} B per row, \
         {} B per key; approx_bytes reports {:.2} MB; tables {:.2} MB",
        db.num_indexes(),
        index_live as f64 / 1e6,
        index_live as usize / rows,
        index_live as usize / keys,
        reported as f64 / 1e6,
        db.table_bytes() as f64 / 1e6,
    );
    assert!(
        index_live as usize / rows <= 250,
        "indices cost {} B per row",
        index_live as usize / rows
    );
    let off = (reported as f64 - index_live as f64).abs() / index_live as f64;
    assert!(
        off <= 0.10,
        "approx_bytes is {:.0}% off the allocator's count",
        off * 100.0
    );
    println!("ingest_memory: OK");
}
