//! Row-major in-memory tables over interned cells.
//!
//! Tables store [`Cell`]s — fixed-width interned values — contiguously.
//! All value-level I/O (inserting `Value` rows, decoding rows back) goes
//! through [`crate::database::Database`], which owns the
//! [`bcq_core::symbols::SymbolTable`] the cells are encoded against.
//!
//! ## Duplicate rows: bag storage, set query semantics
//!
//! A table is a **bag** at the physical level: [`Table::push`] never
//! deduplicates, so the same cell row can be stored any number of times
//! (the baseline executor deliberately pays for those duplicates, like a
//! conventional DBMS reading through a secondary index). Query *answers*
//! are sets (`bcq-exec`'s `ResultSet` deduplicates), so the answer
//! depends only on the **distinct** rows present. Deletion follows the bag:
//! [`Table::swap_remove`] removes **one copy**; the answer set can only
//! change when the *last* copy of a row value disappears.

use bcq_core::prelude::{Cell, RelId};

/// One relation instance: rows of cells stored contiguously (row-major)
/// for cache locality during scans.
#[derive(Debug, Clone)]
pub struct Table {
    rel: RelId,
    arity: usize,
    data: Vec<Cell>,
}

impl Table {
    /// Creates an empty table for relation `rel` with `arity` columns.
    pub fn new(rel: RelId, arity: usize) -> Self {
        assert!(arity > 0, "tables must have at least one column");
        Table {
            rel,
            arity,
            data: Vec::new(),
        }
    }

    /// The relation this table instantiates.
    pub fn rel(&self) -> RelId {
        self.rel
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len() / self.arity
    }

    /// `true` if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Appends a row of cells (must match the arity).
    pub fn push(&mut self, row: &[Cell]) {
        assert_eq!(row.len(), self.arity, "arity mismatch on insert");
        self.data.extend_from_slice(row);
    }

    /// Reserves space for `additional` more rows.
    pub fn reserve_rows(&mut self, additional: usize) {
        self.data.reserve(additional * self.arity);
    }

    /// Reserves space for *exactly* `additional` more rows — the bulk-load
    /// reservation: when the total row count is known up front, one exact
    /// reservation avoids both doubling-growth memcpy churn and the up to
    /// 2× peak-memory overshoot of amortized growth on giant shards.
    pub fn reserve_rows_exact(&mut self, additional: usize) {
        self.data.reserve_exact(additional * self.arity);
    }

    /// Appends an encoded chunk **column at a time**: `cols[c]` holds
    /// column `c`'s cells for every row of the chunk. Each column is
    /// written in one strided pass over the freshly reserved row-major
    /// region — the bulk-ingest append primitive (cf. [`Table::push`],
    /// which copies one `arity`-sized slice per call).
    pub fn append_columns(&mut self, cols: &[Vec<Cell>]) {
        assert_eq!(cols.len(), self.arity, "arity mismatch on chunk append");
        let rows = cols[0].len();
        assert!(cols.iter().all(|c| c.len() == rows), "ragged chunk columns");
        let start = self.data.len();
        self.data.resize(start + rows * self.arity, Cell::NULL);
        let dst = &mut self.data[start..];
        for (c, col) in cols.iter().enumerate() {
            for (r, &cell) in col.iter().enumerate() {
                dst[r * self.arity + c] = cell;
            }
        }
    }

    /// Appends already-encoded rows given as a flat row-major cell slice
    /// (`cells.len()` must be a multiple of the arity) — the replay-side
    /// chunk append.
    pub fn extend_cells(&mut self, cells: &[Cell]) {
        assert_eq!(
            cells.len() % self.arity,
            0,
            "arity mismatch on chunk append"
        );
        self.data.extend_from_slice(cells);
    }

    /// The flat row-major cell storage (`len() * arity()` cells). The WAL
    /// bulk path reads freshly appended chunks back out of this slice.
    pub fn cells(&self) -> &[Cell] {
        &self.data
    }

    /// Resident bytes of the cell storage, reserved room included.
    pub fn approx_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<Cell>()
    }

    /// The `i`-th row.
    pub fn row(&self, i: usize) -> &[Cell] {
        let start = i * self.arity;
        &self.data[start..start + self.arity]
    }

    /// Iterates over all rows.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[Cell]> + '_ {
        self.data.chunks_exact(self.arity)
    }

    /// Gathers one column's cells for the given row ids, appending onto
    /// `out` — the columnar fetch path's primitive: batches are filled
    /// column-at-a-time instead of row-at-a-time, so each pass streams one
    /// stride of the row-major data.
    pub fn gather_column(&self, col: usize, rids: &[u32], out: &mut Vec<Cell>) {
        assert!(col < self.arity, "column out of bounds");
        out.reserve(rids.len());
        out.extend(
            rids.iter()
                .map(|&rid| self.data[rid as usize * self.arity + col]),
        );
    }

    /// The row id of **one** copy of `row`, scanning from the end (recently
    /// inserted rows are found first), or `None` if no copy is stored.
    pub fn find_row(&self, row: &[Cell]) -> Option<usize> {
        assert_eq!(row.len(), self.arity, "arity mismatch on find");
        (0..self.len()).rev().find(|&i| self.row(i) == row)
    }

    /// Removes row `i` **tombstone-free** by moving the last row into its
    /// slot (O(arity), no holes, ids stay dense). Returns the id of the row
    /// that was moved into slot `i` (its old id was `len() - 1`), or `None`
    /// when `i` was the last row and nothing moved.
    ///
    /// Index maintenance contract: callers must fix up registered indices —
    /// remove the deleted row's postings first, then re-point the moved
    /// row's postings from its old id to `i`
    /// (see [`crate::index::HashIndex::remove_row`] and
    /// [`crate::index::HashIndex::reindex_row`]).
    pub fn swap_remove(&mut self, i: usize) -> Option<usize> {
        let last = self
            .len()
            .checked_sub(1)
            .expect("swap_remove on empty table");
        assert!(i <= last, "row id out of bounds");
        if i != last {
            let (head, tail) = self.data.split_at_mut(last * self.arity);
            head[i * self.arity..(i + 1) * self.arity].copy_from_slice(tail);
        }
        self.data.truncate(last * self.arity);
        (i != last).then_some(last)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn cells(vals: &[i64]) -> Vec<Cell> {
        vals.iter()
            .map(|&v| Cell::from_small_int(v).unwrap())
            .collect()
    }

    #[test]
    fn push_and_read() {
        let mut t = Table::new(RelId(0), 2);
        t.push(&cells(&[1, 10]));
        t.push(&cells(&[2, 20]));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.row(0), cells(&[1, 10]).as_slice());
        assert_eq!(t.row(1), cells(&[2, 20]).as_slice());
        assert_eq!(t.rows().count(), 2);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_mismatch_panics() {
        let mut t = Table::new(RelId(0), 2);
        t.push(&cells(&[1]));
    }

    #[test]
    fn swap_remove_moves_last_row_in() {
        let mut t = Table::new(RelId(0), 2);
        t.push(&cells(&[1, 10]));
        t.push(&cells(&[2, 20]));
        t.push(&cells(&[3, 30]));
        // Removing a middle row moves the last row into its slot.
        assert_eq!(t.swap_remove(0), Some(2));
        assert_eq!(t.len(), 2);
        assert_eq!(t.row(0), cells(&[3, 30]).as_slice());
        assert_eq!(t.row(1), cells(&[2, 20]).as_slice());
        // Removing the last row moves nothing.
        assert_eq!(t.swap_remove(1), None);
        assert_eq!(t.len(), 1);
        assert_eq!(t.row(0), cells(&[3, 30]).as_slice());
        assert_eq!(t.swap_remove(0), None);
        assert!(t.is_empty());
    }

    #[test]
    fn find_row_prefers_latest_copy() {
        let mut t = Table::new(RelId(0), 2);
        t.push(&cells(&[1, 10]));
        t.push(&cells(&[2, 20]));
        t.push(&cells(&[1, 10])); // duplicate copy (bag storage)
        assert_eq!(t.find_row(&cells(&[1, 10])), Some(2));
        assert_eq!(t.find_row(&cells(&[2, 20])), Some(1));
        assert_eq!(t.find_row(&cells(&[9, 90])), None);
    }

    #[test]
    #[should_panic(expected = "swap_remove on empty table")]
    fn swap_remove_empty_panics() {
        let mut t = Table::new(RelId(0), 1);
        t.swap_remove(0);
    }

    #[test]
    fn gather_column_follows_rids() {
        let mut t = Table::new(RelId(0), 2);
        t.push(&cells(&[1, 10]));
        t.push(&cells(&[2, 20]));
        t.push(&cells(&[3, 30]));
        let mut out = Vec::new();
        t.gather_column(1, &[2, 0], &mut out);
        assert_eq!(out, cells(&[30, 10]));
        t.gather_column(0, &[], &mut out);
        assert_eq!(out.len(), 2, "empty gather appends nothing");
    }

    #[test]
    fn append_columns_matches_row_pushes() {
        let mut a = Table::new(RelId(0), 3);
        let mut b = Table::new(RelId(0), 3);
        a.push(&cells(&[9, 9, 9]));
        b.push(&cells(&[9, 9, 9]));
        let rows: Vec<Vec<i64>> = (0..17).map(|i| vec![i, i * 2, i * 3]).collect();
        for r in &rows {
            a.push(&cells(r));
        }
        let cols: Vec<Vec<Cell>> = (0..3)
            .map(|c| rows.iter().map(|r| cells(&[r[c]])[0]).collect())
            .collect();
        b.reserve_rows_exact(17);
        b.append_columns(&cols);
        assert_eq!(a.cells(), b.cells());
        assert_eq!(b.len(), 18);
        // An empty chunk is a no-op.
        b.append_columns(&[Vec::new(), Vec::new(), Vec::new()]);
        assert_eq!(b.len(), 18);
    }

    #[test]
    #[should_panic(expected = "ragged chunk columns")]
    fn ragged_chunk_panics() {
        let mut t = Table::new(RelId(0), 2);
        t.append_columns(&[cells(&[1, 2]), cells(&[3])]);
    }

    #[test]
    fn rows_iterator_is_exact_size() {
        let mut t = Table::new(RelId(1), 3);
        for i in 0..10 {
            t.push(&[
                Cell::from_small_int(i).unwrap(),
                Cell::from_small_int(i * 2).unwrap(),
                Cell::NULL,
            ]);
        }
        let it = t.rows();
        assert_eq!(it.len(), 10);
    }
}
