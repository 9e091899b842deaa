//! The bulk loader: [`BulkLoader`], returned by
//! [`crate::Database::bulk_loader`] — the only way to put more than one row
//! into a table under one commit.
//!
//! A load that paid per row would pay four costs that dominate at the
//! tens-of-millions-of-rows scale: a per-cell encode/intern decision
//! against the copy-on-write symbol table, a per-row `Vec` append, a
//! per-row WAL record (framing + sequencing + crc), and a per-row hash-map
//! insertion into every index. `BulkLoader` amortizes the first three over
//! whole chunks, and a caller with a single row pushes a one-row chunk
//! through the same code ([`BulkLoader::push_rows`]):
//!
//! * **Batch symbol interning.** Each chunk column is encoded with one
//!   read-only [`SymbolTable::try_encode_into`] pass; only a suffix that
//!   actually contains unseen values falls back to the interning path
//!   (one `Arc::make_mut`, not one per cell). Steady-state chunks — all
//!   values seen before — never touch the shared table, and are counted
//!   as *batch hits* in [`IngestStats`].
//! * **Column-at-a-time appends.** The chunk lands in the row-major table
//!   through [`crate::Table::append_columns`]: one exact reservation,
//!   then one strided pass per column.
//! * **Amortized WAL records.** One framed [`WalOp::BulkChunk`] per chunk;
//!   the record's payload is read straight back out of the freshly
//!   appended table region, so no row-major copy of the chunk is ever
//!   materialized.
//!
//! The fourth cost — index build — is deferred: the loader clears the
//! relation's indices, and the `build_indexes` call after the load builds
//! every missing index in one batch: large tables through the sort-based
//! construction mode in [`crate::index`], spread over every core (the
//! calling thread allocates each hash table, workers sort and fill), then
//! installed one by one in declaration order, so commits and log records
//! are those of a one-at-a-time loop.

use crate::database::log_new_interns;
use crate::table::Table;
use crate::wal::{WalOp, WalSink};
use bcq_core::prelude::{Cell, RelId, SymbolTable, Value};
use std::sync::Arc;

/// Running counters of one bulk load (see also the serving tier's ingest
/// metrics, which aggregate these across loads).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Rows appended.
    pub rows: u64,
    /// Chunks appended (= WAL bulk-chunk records when a sink is attached).
    pub chunks: u64,
    /// Bytes of encoded cells appended (rows × arity × cell width).
    pub cell_bytes: u64,
    /// Chunks whose every value was already interned: the read-only batch
    /// encode covered them end to end without touching the symbol table.
    pub intern_batch_hits: u64,
}

/// Value-level chunked bulk loader returned by
/// [`crate::Database::bulk_loader`]; see the [module docs](self) for what
/// it amortizes over whole chunks.
pub struct BulkLoader<'a> {
    table: &'a mut Table,
    symbols: &'a mut Arc<SymbolTable>,
    wal: Option<&'a dyn WalSink>,
    rel: RelId,
    /// Reused per-column encode scratch (`arity` vectors).
    colbuf: Vec<Vec<Cell>>,
    /// Reused flat encode scratch for the row-major path.
    rowbuf: Vec<Cell>,
    stats: IngestStats,
}

impl BulkLoader<'_> {
    pub(crate) fn new<'a>(
        table: &'a mut Table,
        symbols: &'a mut Arc<SymbolTable>,
        wal: Option<&'a dyn WalSink>,
        rel: RelId,
    ) -> BulkLoader<'a> {
        let arity = table.arity();
        BulkLoader {
            table,
            symbols,
            wal,
            rel,
            colbuf: vec![Vec::new(); arity],
            rowbuf: Vec::new(),
            stats: IngestStats::default(),
        }
    }

    /// Reserves space for exactly `additional` more rows. Call once with
    /// the total row count before streaming chunks: bulk loads know their
    /// size up front, and one exact reservation avoids both the memcpy
    /// churn and the up-to-2× peak-memory overshoot of doubling growth.
    pub fn reserve_rows(&mut self, additional: usize) {
        self.table.reserve_rows_exact(additional);
    }

    /// Appends one chunk given **column at a time**: `cols[c]` holds
    /// column `c`'s values for every row of the chunk (all columns the
    /// same length). This is the zero-transpose path for columnar row
    /// sources: each column is batch-encoded and written in one strided
    /// pass.
    pub fn push_chunk_columns(&mut self, cols: &[Vec<Value>]) {
        assert_eq!(
            cols.len(),
            self.table.arity(),
            "arity mismatch on chunk append"
        );
        let rows = cols[0].len();
        if rows == 0 {
            return;
        }
        let mut all_hit = true;
        for (c, col) in cols.iter().enumerate() {
            assert_eq!(col.len(), rows, "ragged chunk columns");
            self.colbuf[c].clear();
            all_hit &= encode_batch_logged(self.symbols, self.wal, col, &mut self.colbuf[c]);
        }
        let start = self.table.len();
        self.table.append_columns(&self.colbuf);
        self.log_appended(start, rows, all_hit);
    }

    /// Appends one chunk whose cells were already encoded against (any
    /// copy-on-write handle of) this database's symbol table — the
    /// parallel-ingest path, where worker threads pre-encode chunks
    /// against a shared [`crate::Database::shared_symbols`] handle and
    /// hand only fully-encoded (all values previously interned) chunks to
    /// the installer. Symbol ids are stable once assigned, so cells
    /// encoded against an older handle stay valid. Loads identically to
    /// [`Self::push_chunk_columns`] on the decoded values, batch-hit
    /// accounting included (no interning happened for this chunk).
    pub fn push_encoded_columns(&mut self, cols: &[Vec<Cell>]) {
        assert_eq!(
            cols.len(),
            self.table.arity(),
            "arity mismatch on chunk append"
        );
        let rows = cols[0].len();
        if rows == 0 {
            return;
        }
        for col in cols {
            assert_eq!(col.len(), rows, "ragged chunk columns");
        }
        let start = self.table.len();
        self.table.append_columns(cols);
        self.log_appended(start, rows, true);
    }

    /// Appends one chunk given as flat **row-major** values
    /// (`flat.len()` must be a multiple of the arity; one row is a chunk
    /// too) — the replay-side and convenience path; same batch encoding
    /// and single WAL record as [`Self::push_chunk_columns`].
    pub fn push_rows(&mut self, flat: &[Value]) {
        let arity = self.table.arity();
        assert_eq!(flat.len() % arity, 0, "arity mismatch on chunk append");
        let rows = flat.len() / arity;
        if rows == 0 {
            return;
        }
        self.rowbuf.clear();
        let all_hit = encode_batch_logged(self.symbols, self.wal, flat, &mut self.rowbuf);
        let start = self.table.len();
        self.table.extend_cells(&self.rowbuf);
        self.log_appended(start, rows, all_hit);
    }

    /// Emits the WAL chunk record for rows appended at `start` and updates
    /// the counters. The record payload is read back out of the table's
    /// row-major storage — the appended region *is* the chunk.
    fn log_appended(&mut self, start: usize, rows: usize, all_hit: bool) {
        let arity = self.table.arity();
        let cells = &self.table.cells()[start * arity..];
        if let Some(sink) = self.wal {
            sink.record(WalOp::BulkChunk {
                rel: self.rel,
                rows: u32::try_from(rows).expect("chunk too large"),
                cells,
            });
        }
        self.stats.rows += rows as u64;
        self.stats.chunks += 1;
        self.stats.cell_bytes += std::mem::size_of_val(cells) as u64;
        self.stats.intern_batch_hits += u64::from(all_hit);
    }

    /// A shared read-only handle to the symbol table **as of now**.
    /// Parallel ingest workers pre-encode upcoming chunks against it:
    /// symbol ids are stable once assigned, so a handle stays a valid
    /// prefix of every later state and cells encoded against it remain
    /// correct however much interning happens in between (see
    /// [`Self::push_encoded_columns`]).
    pub fn shared_symbols(&self) -> Arc<SymbolTable> {
        Arc::clone(self.symbols)
    }

    /// Counters accumulated so far (read them before dropping the loader).
    pub fn stats(&self) -> IngestStats {
        self.stats
    }
}

impl Drop for BulkLoader<'_> {
    fn drop(&mut self) {
        // Close the WAL bracket: recovery discards a bulk load whose end
        // record never made it to the log (torn mid-load).
        if let Some(sink) = self.wal {
            sink.record(WalOp::BulkEnd { rel: self.rel });
        }
    }
}

/// Batch copy-on-write encode: one read-only pass over the whole batch;
/// only a suffix containing unseen values clones the symbol table (once)
/// and interns, logging the new symbols before returning. Returns `true`
/// when the read-only pass covered the entire batch.
fn encode_batch_logged(
    symbols: &mut Arc<SymbolTable>,
    wal: Option<&dyn WalSink>,
    vals: &[Value],
    out: &mut Vec<Cell>,
) -> bool {
    let hit = symbols.try_encode_into(vals, out);
    if hit == vals.len() {
        return true;
    }
    let (strings_before, wides_before) = (symbols.len(), symbols.num_wide_ints());
    Arc::make_mut(symbols).encode_into(&vals[hit..], out);
    if let Some(sink) = wal {
        log_new_interns(symbols, sink, strings_before, wides_before);
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use bcq_core::access::AccessSchema;
    use bcq_core::prelude::Catalog;

    fn catalog() -> Arc<Catalog> {
        Catalog::from_names(&[("r", &["a", "b", "c"]), ("s", &["x"])]).unwrap()
    }

    fn row(i: i64) -> Vec<Value> {
        vec![
            Value::int(i % 7),
            Value::str(format!("s{}", i % 5)),
            if i % 11 == 0 {
                Value::int(i64::MAX - i)
            } else {
                Value::Null
            },
        ]
    }

    /// The ground truth: the same rows pushed one at a time.
    fn via_loader(rows: &[Vec<Value>]) -> Database {
        let mut db = Database::new(catalog());
        let mut l = db.bulk_loader(RelId(0));
        for r in rows {
            l.push_rows(r);
        }
        drop(l);
        db
    }

    #[test]
    fn chunked_columns_match_per_row_loader_exactly() {
        let rows: Vec<Vec<Value>> = (0..100).map(row).collect();
        let oracle = via_loader(&rows);

        let mut db = Database::new(catalog());
        let mut b = db.bulk_loader(RelId(0));
        b.reserve_rows(rows.len());
        for chunk in rows.chunks(17) {
            let cols: Vec<Vec<Value>> = (0..3)
                .map(|c| chunk.iter().map(|r| r[c].clone()).collect())
                .collect();
            b.push_chunk_columns(&cols);
        }
        let stats = b.stats();
        drop(b);

        assert_eq!(stats.rows, 100);
        assert_eq!(stats.chunks, 6);
        assert_eq!(stats.cell_bytes, 100 * 3 * 8);
        // Same rows, same epoch bump, and — because interning order is
        // deterministic per chunk — the same decoded values everywhere.
        assert_eq!(db.epoch(), oracle.epoch());
        assert_eq!(db.epoch_of(RelId(0)), oracle.epoch_of(RelId(0)));
        let a: Vec<_> = db.value_rows(RelId(0)).collect();
        let b: Vec<_> = oracle.value_rows(RelId(0)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn row_major_chunks_match_columnar_chunks() {
        let rows: Vec<Vec<Value>> = (0..60).map(row).collect();
        let mut via_cols = Database::new(catalog());
        {
            let mut b = via_cols.bulk_loader(RelId(0));
            for chunk in rows.chunks(16) {
                let cols: Vec<Vec<Value>> = (0..3)
                    .map(|c| chunk.iter().map(|r| r[c].clone()).collect())
                    .collect();
                b.push_chunk_columns(&cols);
            }
        }
        let mut via_flat = Database::new(catalog());
        {
            let mut b = via_flat.bulk_loader(RelId(0));
            for chunk in rows.chunks(16) {
                let flat: Vec<Value> = chunk.iter().flatten().cloned().collect();
                b.push_rows(&flat);
            }
            assert_eq!(b.stats().rows, 60);
        }
        let a: Vec<_> = via_cols.value_rows(RelId(0)).collect();
        let b: Vec<_> = via_flat.value_rows(RelId(0)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn steady_state_chunks_count_as_batch_hits_and_share_the_symbol_table() {
        let rows: Vec<Vec<Value>> = (0..40).map(row).collect();
        let mut db = Database::new(catalog());
        {
            let mut b = db.bulk_loader(RelId(0));
            for chunk in rows.chunks(20) {
                let flat: Vec<Value> = chunk.iter().flatten().cloned().collect();
                b.push_rows(&flat);
            }
        }
        let snap = db.clone();
        {
            // Every value is interned now: the second load over the same
            // rows must be all batch hits and must never clone the symbol
            // table, even with a snapshot outstanding.
            let mut b = db.bulk_loader(RelId(0));
            for chunk in rows.chunks(20) {
                let flat: Vec<Value> = chunk.iter().flatten().cloned().collect();
                b.push_rows(&flat);
            }
            assert_eq!(b.stats().intern_batch_hits, 2);
            assert_eq!(b.stats().chunks, 2);
        }
        assert!(
            std::ptr::eq(snap.symbols(), db.symbols()),
            "steady-state bulk load shares the symbol table"
        );
        assert_eq!(db.table(RelId(0)).len(), 80);
    }

    #[test]
    fn bulk_loader_invalidates_indices() {
        let cat = catalog();
        let mut a = AccessSchema::new(cat.clone());
        a.add("r", &["a"], &["b"], 100).unwrap();
        let mut db = Database::new(cat);
        db.insert("r", &row(1)).unwrap();
        db.build_indexes(&a);
        assert_eq!(db.num_indexes(), 1);
        {
            let mut b = db.bulk_loader(RelId(0));
            b.push_rows(&row(2));
        }
        assert_eq!(db.num_indexes(), 0, "bulk load drops the indices");
        db.build_indexes(&a);
        assert_eq!(db.num_indexes(), 1);
    }

    #[test]
    fn pre_encoded_chunks_match_value_chunks_exactly() {
        let rows: Vec<Vec<Value>> = (0..100).map(row).collect();
        let mut oracle = Database::new(catalog());
        {
            let mut b = oracle.bulk_loader(RelId(0));
            for chunk in rows.chunks(17) {
                let cols: Vec<Vec<Value>> = (0..3)
                    .map(|c| chunk.iter().map(|r| r[c].clone()).collect())
                    .collect();
                b.push_chunk_columns(&cols);
            }
        }

        // Warm a second database's symbol table with the same values, then
        // push the same chunks pre-encoded against a shared handle taken
        // *before* the load — the parallel-ingest situation.
        let mut warm = Database::new(catalog());
        {
            let mut b = warm.bulk_loader(RelId(0));
            for chunk in rows.chunks(17) {
                let cols: Vec<Vec<Value>> = (0..3)
                    .map(|c| chunk.iter().map(|r| r[c].clone()).collect())
                    .collect();
                b.push_chunk_columns(&cols);
            }
        }
        // Second pass over `warm`: every value interned, so chunks can be
        // pre-encoded against a snapshot handle and appended cell-level.
        let symbols = warm.shared_symbols();
        let before = warm.value_rows(RelId(0)).collect::<Vec<_>>();
        let stats = {
            let mut b = warm.bulk_loader(RelId(0));
            for chunk in rows.chunks(17) {
                let cols: Vec<Vec<Cell>> = (0..3)
                    .map(|c| {
                        let vals: Vec<Value> = chunk.iter().map(|r| r[c].clone()).collect();
                        let mut out = Vec::new();
                        assert_eq!(symbols.try_encode_into(&vals, &mut out), vals.len());
                        out
                    })
                    .collect();
                b.push_encoded_columns(&cols);
            }
            b.stats()
        };
        assert_eq!(stats.rows, 100);
        assert_eq!(stats.chunks, 6);
        assert_eq!(
            stats.intern_batch_hits, 6,
            "pre-encoded chunks are batch hits"
        );
        let after = warm.value_rows(RelId(0)).collect::<Vec<_>>();
        assert_eq!(after.len(), 200);
        assert_eq!(&after[100..], &before[..]);
        let o: Vec<_> = oracle.value_rows(RelId(0)).collect();
        assert_eq!(&after[100..], &o[..]);
    }

    #[test]
    #[should_panic(expected = "ragged chunk columns")]
    fn ragged_chunk_panics() {
        let mut db = Database::new(catalog());
        let mut b = db.bulk_loader(RelId(0));
        b.push_chunk_columns(&[
            vec![Value::int(1)],
            vec![Value::int(2), Value::int(3)],
            vec![Value::int(4)],
        ]);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn flat_arity_mismatch_panics() {
        let mut db = Database::new(catalog());
        let mut b = db.bulk_loader(RelId(0));
        b.push_rows(&[Value::int(1), Value::int(2)]);
    }
}
