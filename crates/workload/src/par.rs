//! Parallel bulk ingest: a thread pool drives [`RowSource`] chunks into a
//! single [`bcq_storage::BulkLoader`] and produces **bit-for-bit** the
//! state a serial [`crate::source::load_range`] pass would.
//!
//! ## How parallelism composes with determinism
//!
//! The row range is cut into fixed-size chunks, numbered from zero.
//! Worker `w` of `W` generates chunks `w, w + W, w + 2W, …` (strided —
//! no work queue, no contention) and does the two expensive pure steps
//! off the installer thread:
//!
//! 1. **generate** — [`RowSource::fill_chunk`] is a pure function of the
//!    row range, so any thread can materialize any chunk;
//! 2. **pre-encode** — the chunk's values are batch-encoded against a
//!    shared read-only symbol-table handle
//!    ([`bcq_storage::BulkLoader::shared_symbols`]). Symbol ids are
//!    stable once assigned, so a pre-encoded cell is correct forever; a
//!    chunk containing a value the handle has not seen is shipped as
//!    plain values instead.
//!
//! The installer (the calling thread, which owns the `&mut Database`)
//! receives chunks **in chunk order** — worker channels are drained
//! round-robin, mirroring the strided assignment — and installs each one:
//! fully encoded chunks via [`bcq_storage::BulkLoader::push_encoded_columns`],
//! value chunks via the interning
//! [`bcq_storage::BulkLoader::push_chunk_columns`] path. Interning
//! therefore happens **only on the installer thread, in chunk order** —
//! exactly the order the serial pass interns in — so symbol ids, row
//! bytes, WAL records, ingest stats and the epoch vector all come out
//! identical to the serial load. After any interning install, the shared
//! handle is refreshed so later chunks pre-encode against the richer
//! table.
//!
//! Channels are bounded: memory stays `O(workers × chunk)` beyond the
//! table being built, as in the serial path.

use crate::source::{RowSource, DEFAULT_CHUNK_ROWS};
use bcq_core::prelude::{Cell, SymbolTable, Value};
use bcq_storage::{Database, IngestStats};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::{Arc, RwLock};

/// Chunks each worker may have in flight before it blocks (per worker:
/// one being generated plus this many queued).
const CHANNEL_DEPTH: usize = 2;

/// Knobs for [`load_par`] / [`load_range_par`].
#[derive(Debug, Clone, Copy)]
pub struct ParLoadOptions {
    /// Worker threads generating and pre-encoding chunks beside the
    /// installer, which runs on the calling thread. Clamped to at least 1
    /// and at most the number of chunks; even one worker overlaps
    /// generation with installing.
    pub threads: usize,
    /// Rows per chunk (also the unit of WAL amortization).
    pub chunk_rows: usize,
}

impl Default for ParLoadOptions {
    fn default() -> Self {
        ParLoadOptions {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(8),
            chunk_rows: DEFAULT_CHUNK_ROWS,
        }
    }
}

/// One generated chunk in flight from a worker to the installer.
enum Chunk {
    /// Every value was already interned in the worker's handle: encoded
    /// cells, ready to append without touching the symbol table.
    Encoded(Vec<Vec<Cell>>),
    /// At least one unseen value: the installer interns (in chunk order,
    /// like the serial path would).
    Values(Vec<Vec<Value>>),
}

/// Streams the whole source into `db` with a worker pool; state is
/// bit-for-bit identical to [`crate::source::load`] at the same chunk
/// size. Returns the load's counters.
pub fn load_par(db: &mut Database, src: &dyn RowSource, opts: ParLoadOptions) -> IngestStats {
    load_range_par(db, src, 0, src.total_rows(), opts)
}

/// Streams rows `start .. end` into `db` with a worker pool — the
/// parallel form of [`crate::source::load_range`], producing the
/// identical final state (rows, symbol ids, WAL records, stats, epoch
/// vector). One bulk-load bracket, like the serial call.
pub fn load_range_par(
    db: &mut Database,
    src: &dyn RowSource,
    start: u64,
    end: u64,
    opts: ParLoadOptions,
) -> IngestStats {
    assert!(opts.chunk_rows > 0, "chunk size must be positive");
    assert!(
        start <= end && end <= src.total_rows(),
        "row range out of bounds"
    );
    let chunk_rows = opts.chunk_rows;
    let total = end - start;
    let chunks = usize::try_from(total.div_ceil(chunk_rows as u64)).expect("chunk count fits");
    let workers = opts.threads.max(1).min(chunks.max(1));

    let mut loader = db.bulk_loader(src.rel());
    loader.reserve_rows(total as usize);
    // The shared pre-encode handle; refreshed by the installer after any
    // interning install so later chunks see the richer table.
    let symbols: Arc<RwLock<Arc<SymbolTable>>> = Arc::new(RwLock::new(loader.shared_symbols()));
    let arity = src.arity();

    std::thread::scope(|scope| {
        let mut rxs: Vec<Receiver<Chunk>> = Vec::with_capacity(workers);
        for w in 0..workers {
            let (tx, rx) = sync_channel::<Chunk>(CHANNEL_DEPTH);
            rxs.push(rx);
            let symbols = Arc::clone(&symbols);
            scope.spawn(move || {
                let mut cols: Vec<Vec<Value>> =
                    (0..arity).map(|_| Vec::with_capacity(chunk_rows)).collect();
                let mut i = w;
                while i < chunks {
                    let at = start + (i as u64) * chunk_rows as u64;
                    let n = chunk_rows.min((end - at) as usize);
                    cols.iter_mut().for_each(Vec::clear);
                    src.fill_chunk(at, n, &mut cols);
                    let handle = Arc::clone(&symbols.read().unwrap_or_else(|e| e.into_inner()));
                    let mut enc: Vec<Vec<Cell>> = Vec::with_capacity(arity);
                    let mut all_hit = true;
                    for c in &cols {
                        let mut out = Vec::new();
                        if handle.try_encode_into(c, &mut out) < c.len() {
                            all_hit = false;
                            break;
                        }
                        enc.push(out);
                    }
                    let msg = if all_hit {
                        Chunk::Encoded(enc)
                    } else {
                        Chunk::Values(cols.clone())
                    };
                    if tx.send(msg).is_err() {
                        return; // installer bailed (panic unwinding)
                    }
                    i += workers;
                }
            });
        }
        // Install strictly in chunk order: chunk `i` always arrives on
        // worker `i % workers`'s channel, in that worker's send order.
        for i in 0..chunks {
            let msg = rxs[i % workers].recv().expect("ingest worker died");
            match msg {
                Chunk::Encoded(enc) => loader.push_encoded_columns(&enc),
                Chunk::Values(vals) => {
                    loader.push_chunk_columns(&vals);
                    // Interning may have grown the table: publish the
                    // fresh handle for chunks not yet pre-encoded.
                    *symbols.write().unwrap_or_else(|e| e.into_inner()) = loader.shared_symbols();
                }
            }
        }
        loader.stats()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{load, load_range, rows};
    use bcq_core::prelude::{Catalog, RelId};
    use std::sync::Arc as StdArc;

    fn catalog() -> StdArc<Catalog> {
        Catalog::from_names(&[("r", &["a", "b", "c"])]).unwrap()
    }

    /// Strings with a long tail so interning keeps happening mid-load
    /// (every 97th row mints a fresh symbol).
    fn src(total: u64) -> Box<dyn RowSource> {
        rows(RelId(0), 3, total, |i, row| {
            row.push(Value::int(i as i64));
            row.push(Value::str(format!("common{}", i % 5)));
            row.push(Value::str(format!("tail{}", i / 97)));
        })
    }

    fn dump(db: &Database) -> (Vec<Vec<Value>>, usize, u64) {
        (
            db.value_rows(RelId(0)).collect(),
            db.symbols().len(),
            db.epoch(),
        )
    }

    #[test]
    fn parallel_load_is_bit_identical_to_serial() {
        let s = src(10_000);
        let mut serial = Database::new(catalog());
        let serial_stats = load(&mut serial, s.as_ref());
        for threads in [2, 3, 7] {
            let mut par = Database::new(catalog());
            let par_stats = load_par(
                &mut par,
                s.as_ref(),
                ParLoadOptions {
                    threads,
                    chunk_rows: DEFAULT_CHUNK_ROWS,
                },
            );
            assert_eq!(par_stats, serial_stats, "threads={threads}");
            assert_eq!(dump(&par), dump(&serial), "threads={threads}");
        }
    }

    #[test]
    fn uneven_chunks_and_partitioned_ranges_compose() {
        let s = src(1_003);
        let mut serial = Database::new(catalog());
        load_range(&mut serial, s.as_ref(), 0, 137, 17);
        load_range(&mut serial, s.as_ref(), 137, 1_003, 17);
        let mut par = Database::new(catalog());
        load_range_par(
            &mut par,
            s.as_ref(),
            0,
            137,
            ParLoadOptions {
                threads: 4,
                chunk_rows: 17,
            },
        );
        load_range_par(
            &mut par,
            s.as_ref(),
            137,
            1_003,
            ParLoadOptions {
                threads: 3,
                chunk_rows: 17,
            },
        );
        assert_eq!(dump(&par), dump(&serial));
    }

    #[test]
    fn degenerate_shapes_match_the_serial_loader() {
        let s = src(10);
        // One thread, one chunk, and an empty range each run one worker
        // and still agree with the serial path.
        for (a, b, threads, chunk) in [(0, 10, 1, 4), (0, 10, 4, 100), (5, 5, 4, 4)] {
            let mut serial = Database::new(catalog());
            load_range(&mut serial, s.as_ref(), a, b, chunk);
            let mut par = Database::new(catalog());
            load_range_par(
                &mut par,
                s.as_ref(),
                a,
                b,
                ParLoadOptions {
                    threads,
                    chunk_rows: chunk,
                },
            );
            assert_eq!(dump(&par), dump(&serial));
        }
    }
}
