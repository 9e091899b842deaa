//! Column-major candidate batches: the vectorized data-plane layout.
//!
//! A [`ColumnBatch`] stores the same candidate rows as a row-major batch,
//! transposed: one contiguous `Vec<Cell>` per column plus a **selection
//! vector** of live row indices. Operators never materialize intermediate
//! rows — a filter is a predicate sweep over a single column that shrinks
//! the selection vector in place, a join key extraction is a gather from a
//! column through the selection vector into a packed key column, and only
//! projection touches anything row-shaped again.
//!
//! Cells are single `u64` words ([`Cell`]), so every sweep is a tight loop
//! over machine words the compiler can unroll and auto-vectorize. The
//! boundedness guarantee is what makes this layout pay off: bounded plans
//! know their per-atom fetch bounds statically, so batches are small and
//! column-at-a-time passes stay resident in cache.
//!
//! `bcq-exec`'s differential reference takes these same batches and
//! transposes them back to [`crate::row::RowBuf`] rows
//! ([`ColumnBatch::to_rows`]); the equivalence tests drive the columnar
//! interpreter and the reference over identical inputs and assert
//! identical answers and meter charges.

use crate::row::{Cell, Row, RowBuf};

/// Candidate rows for one atom in column-major layout with a selection
/// vector. The columnar counterpart of `bcq-exec`'s row-major batch.
///
/// Invariants: every column holds exactly [`ColumnBatch::total_rows`]
/// cells, and the selection vector holds strictly increasing indices below
/// `total_rows` (operators only ever *remove* entries, so construction
/// order is preserved).
#[derive(Debug, Clone)]
pub struct ColumnBatch {
    atom: usize,
    cols: Vec<usize>,
    columns: Vec<Vec<Cell>>,
    total: usize,
    sel: Vec<u32>,
}

impl ColumnBatch {
    /// An empty batch for `atom` carrying the relation columns `cols`.
    pub fn new(atom: usize, cols: Vec<usize>) -> Self {
        let width = cols.len();
        ColumnBatch {
            atom,
            cols,
            columns: vec![Vec::new(); width],
            total: 0,
            sel: Vec::new(),
        }
    }

    /// Transposes row-major rows (already projected onto `cols`) into a
    /// columnar batch with every row selected.
    pub fn from_rows<'a, I>(atom: usize, cols: Vec<usize>, rows: I) -> Self
    where
        I: IntoIterator<Item = &'a Row>,
    {
        let mut batch = ColumnBatch::new(atom, cols);
        for row in rows {
            batch.push_row(row);
        }
        batch
    }

    /// Appends one (selected) row; its width must match the column layout.
    #[inline]
    pub fn push_row(&mut self, row: &Row) {
        debug_assert_eq!(row.len(), self.columns.len(), "row width mismatch");
        for (col, &cell) in self.columns.iter_mut().zip(row) {
            col.push(cell);
        }
        self.sel.push(self.total as u32);
        self.total += 1;
    }

    /// Resets the batch in place for reuse: drops all rows and the
    /// selection, re-targets `atom` and the column layout, and keeps every
    /// buffer's capacity. The serving layer recycles batches across
    /// requests through this, so a steady-state request allocates nothing
    /// for its fetch output.
    pub fn reset(&mut self, atom: usize, cols: &[usize]) {
        self.atom = atom;
        self.cols.clear();
        self.cols.extend_from_slice(cols);
        self.columns.truncate(cols.len());
        for col in &mut self.columns {
            col.clear();
        }
        self.columns.resize_with(cols.len(), Vec::new);
        self.total = 0;
        self.sel.clear();
    }

    /// Reserves space for `additional` more rows in every column.
    pub fn reserve_rows(&mut self, additional: usize) {
        for col in &mut self.columns {
            col.reserve(additional);
        }
        self.sel.reserve(additional);
    }

    /// The atom these rows instantiate.
    #[inline]
    pub fn atom(&self) -> usize {
        self.atom
    }

    /// Relation columns present, aligned with the column vectors.
    #[inline]
    pub fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// Number of columns.
    #[inline]
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// All cells of column `i` (selected and filtered alike) — index with
    /// selection-vector entries.
    #[inline]
    pub fn column(&self, i: usize) -> &[Cell] {
        &self.columns[i]
    }

    /// Rows ever appended (the length of every column).
    #[inline]
    pub fn total_rows(&self) -> usize {
        self.total
    }

    /// Live (selected) rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.sel.len()
    }

    /// `true` if no row is selected.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.sel.is_empty()
    }

    /// The selection vector: indices of live rows, ascending.
    #[inline]
    pub fn sel(&self) -> &[u32] {
        &self.sel
    }

    /// Replaces the selection vector with a sweep's survivors. Must be a
    /// subsequence of the current selection (operators only remove rows).
    pub fn set_sel(&mut self, sel: Vec<u32>) {
        debug_assert!(
            sel.windows(2).all(|w| w[0] < w[1]),
            "selection not ascending"
        );
        debug_assert!(
            sel.last().is_none_or(|&r| (r as usize) < self.total),
            "selection out of bounds"
        );
        self.sel = sel;
    }

    /// Bulk-appends `n` rows column-at-a-time: `fill(i, out)` must append
    /// exactly `n` cells of output column `i` onto `out` (e.g. a gather
    /// from storage). All appended rows are selected.
    pub fn extend_columns<F: FnMut(usize, &mut Vec<Cell>)>(&mut self, n: usize, mut fill: F) {
        for (i, col) in self.columns.iter_mut().enumerate() {
            fill(i, col);
            debug_assert_eq!(
                col.len(),
                self.total + n,
                "fill wrote a different row count"
            );
        }
        self.sel
            .extend((self.total..self.total + n).map(|r| r as u32));
        self.total += n;
    }

    /// Deselects every row (a filter that can match nothing).
    #[inline]
    pub fn clear_sel(&mut self) {
        self.sel.clear();
    }

    /// Keeps only the selected rows `f` accepts (called with the row
    /// index). The generic sweep behind operator-specific filters.
    #[inline]
    pub fn retain<F: FnMut(usize) -> bool>(&mut self, mut f: F) {
        self.sel.retain(|&r| f(r as usize));
    }

    /// Predicate sweep: keeps selected rows whose cell in column `i`
    /// equals `cell`.
    #[inline]
    pub fn retain_eq_const(&mut self, i: usize, cell: Cell) {
        let col = &self.columns[i];
        self.sel.retain(|&r| col[r as usize] == cell);
    }

    /// Equality-pair sweep: keeps selected rows whose cells in columns `i`
    /// and `j` agree. `i == j` (a self-equality predicate) is trivially
    /// true and sweeps nothing.
    #[inline]
    pub fn retain_cols_eq(&mut self, i: usize, j: usize) {
        if i == j {
            return;
        }
        let ci = &self.columns[i];
        let cj = &self.columns[j];
        self.sel.retain(|&r| ci[r as usize] == cj[r as usize]);
    }

    /// Gathers column `i` through the selection vector, appending one cell
    /// per live row onto `out` — join key packing.
    #[inline]
    pub fn gather(&self, i: usize, out: &mut Vec<Cell>) {
        let col = &self.columns[i];
        out.extend(self.sel.iter().map(|&r| col[r as usize]));
    }

    /// The cell at (`row`, column `i`) — `row` is a row index, typically a
    /// selection-vector entry.
    #[inline]
    pub fn cell(&self, row: usize, i: usize) -> Cell {
        self.columns[i][row]
    }

    /// Materializes the live rows back into row-major form, in selection
    /// order (tests and oracle comparisons; the hot path never calls this).
    pub fn to_rows(&self) -> Vec<RowBuf> {
        self.sel
            .iter()
            .map(|&r| {
                self.columns
                    .iter()
                    .map(|col| col[r as usize])
                    .collect::<RowBuf>()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(v: i64) -> Cell {
        Cell::from_small_int(v).unwrap()
    }

    fn batch(rows: &[&[i64]]) -> ColumnBatch {
        let width = rows.first().map_or(0, |r| r.len());
        let mut b = ColumnBatch::new(0, (0..width).collect());
        for r in rows {
            let cells: Vec<Cell> = r.iter().map(|&v| cell(v)).collect();
            b.push_row(&cells);
        }
        b
    }

    #[test]
    fn transpose_roundtrip() {
        let b = batch(&[&[1, 10], &[2, 20], &[3, 30]]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.total_rows(), 3);
        assert_eq!(b.width(), 2);
        assert_eq!(b.column(0), &[cell(1), cell(2), cell(3)]);
        assert_eq!(b.column(1), &[cell(10), cell(20), cell(30)]);
        let rows = b.to_rows();
        assert_eq!(rows[1].as_slice(), &[cell(2), cell(20)]);
    }

    #[test]
    fn empty_batch_has_empty_selection() {
        let b = ColumnBatch::new(3, vec![0, 1]);
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
        assert_eq!(b.total_rows(), 0);
        assert_eq!(b.sel(), &[] as &[u32]);
        assert!(b.to_rows().is_empty());
        assert_eq!(b.atom(), 3);
    }

    #[test]
    fn sweeps_shrink_selection_not_columns() {
        let mut b = batch(&[&[1, 1], &[1, 2], &[2, 2], &[1, 1]]);
        b.retain_eq_const(0, cell(1));
        assert_eq!(b.sel(), &[0, 1, 3]);
        b.retain_cols_eq(0, 1);
        assert_eq!(b.sel(), &[0, 3]);
        // Columns keep every row: only the selection shrinks.
        assert_eq!(b.total_rows(), 4);
        assert_eq!(b.column(0).len(), 4);
        assert_eq!(b.to_rows().len(), 2);
    }

    #[test]
    fn all_filtered_batch_is_empty_but_retains_data() {
        let mut b = batch(&[&[1, 10], &[2, 20]]);
        b.retain_eq_const(0, cell(99));
        assert!(b.is_empty());
        assert_eq!(b.total_rows(), 2);
        b.clear_sel();
        assert!(b.is_empty());
    }

    #[test]
    fn gather_follows_selection() {
        let mut b = batch(&[&[1, 10], &[2, 20], &[3, 30]]);
        b.retain(|r| r != 1);
        let mut keys = Vec::new();
        b.gather(1, &mut keys);
        assert_eq!(keys, vec![cell(10), cell(30)]);
    }

    #[test]
    fn reset_retargets_and_empties_the_batch() {
        let mut b = batch(&[&[1, 10], &[2, 20]]);
        b.retain_eq_const(0, cell(1));
        b.reset(7, &[4, 5, 6]);
        assert_eq!(b.atom(), 7);
        assert_eq!(b.cols(), &[4, 5, 6]);
        assert_eq!(b.width(), 3);
        assert!(b.is_empty());
        assert_eq!(b.total_rows(), 0);
        b.push_row(&[cell(1), cell(2), cell(3)]);
        assert_eq!(b.len(), 1);
        assert_eq!(b.to_rows()[0].as_slice(), &[cell(1), cell(2), cell(3)]);
        // Shrinking the layout works too (and clears prior contents).
        b.reset(0, &[9]);
        assert_eq!(b.width(), 1);
        assert!(b.is_empty());
    }

    #[test]
    fn zero_width_batch_counts_rows() {
        // Existence probes produce empty rows: no columns, but the batch
        // still carries row multiplicity through the selection vector.
        let mut b = ColumnBatch::new(0, Vec::new());
        b.push_row(&[]);
        assert_eq!(b.width(), 0);
        assert_eq!(b.len(), 1);
        assert_eq!(b.to_rows(), vec![RowBuf::new()]);
    }
}
