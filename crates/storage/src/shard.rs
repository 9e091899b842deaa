//! Per-relation shards: the unit of copy-on-write in the sharded store.
//!
//! A [`RelationShard`] owns everything whose lifetime follows one relation:
//! its [`Table`], the [`HashIndex`]es built over it, and its own **epoch**
//! component of the database's vector clock. [`crate::Database`] holds its
//! shards behind `Arc`s, so cloning a database is O(relations) pointer
//! bumps and a write clones only the shard it touches
//! (`Arc::make_mut`) while every untouched shard stays pointer-shared with
//! outstanding snapshots.
//!
//! Shards are read-only outside the storage crate; all mutation funnels
//! through [`crate::Database`], which is what keeps the vector clock and
//! the global commit counter coherent. A single row enters or leaves a
//! table in exactly one place, `RelationShard::apply_row`, whichever way
//! the write reached it (in place or prepared against a clone).

use crate::index::HashIndex;
use crate::table::Table;
use crate::wal::WalOp;
use bcq_core::prelude::{Cell, RelId, RowBuf};

/// Which way a single-row write moves its row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowOp {
    /// Append the row.
    Insert,
    /// Remove one stored copy of the row (bag storage: duplicates leave
    /// one at a time; see [`Table`]).
    Delete,
}

impl RowOp {
    /// The WAL record of this op applied to `cells` of `rel` at `commit`.
    pub(crate) fn wal_op(self, commit: u64, rel: RelId, cells: &[Cell]) -> WalOp<'_> {
        match self {
            RowOp::Insert => WalOp::Insert { commit, rel, cells },
            RowOp::Delete => WalOp::Delete { commit, rel, cells },
        }
    }
}

/// Structural identity of an index within its shard: key columns + value
/// columns. Indices are shared across access schemas that declare the same
/// `(X, Y)` (e.g. the `‖A‖`-sweep subsets of Figure 5(b)); the relation is
/// implied by the shard.
pub(crate) type IndexKey = (Vec<usize>, Vec<usize>);

/// One relation's slice of the database: table + indices + epoch.
///
/// The epoch is this shard's component of the database's **vector clock**:
/// it records the global commit number of the last mutation that touched
/// this relation. Layers that cache anything derived from a *subset* of
/// relations (compiled plans, registered views) compare per-shard epochs
/// and ignore commits that only advanced other shards.
#[derive(Debug, Clone)]
pub struct RelationShard {
    pub(crate) table: Table,
    /// The built indices, keyed by their `(x, y)` column sets. A handful
    /// per relation at most, and probed on every fetch step: a linear
    /// scan with borrowed keys beats a hash map (whose owned tuple key
    /// would cost two allocations per lookup).
    pub(crate) indexes: Vec<(IndexKey, HashIndex)>,
    pub(crate) epoch: u64,
}

impl RelationShard {
    /// An empty shard wrapping `table` at epoch 0.
    pub(crate) fn new(table: Table) -> Self {
        RelationShard {
            table,
            indexes: Vec::new(),
            epoch: 0,
        }
    }

    /// The relation's table.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// This shard's vector-clock component: the global commit number of the
    /// last mutation that touched this relation (0 if never written).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of indices registered on this relation.
    pub fn num_indexes(&self) -> usize {
        self.indexes.len()
    }

    /// The `(key columns, value columns)` of every registered index, in
    /// registration order — what the durability layer records in a
    /// snapshot so recovery can rebuild the same indices.
    pub fn index_specs(&self) -> impl Iterator<Item = (&[usize], &[usize])> + '_ {
        self.indexes
            .iter()
            .map(|((x, y), _)| (x.as_slice(), y.as_slice()))
    }

    /// The index on key columns `x` exposing value columns `y`, if built.
    pub fn index(&self, x: &[usize], y: &[usize]) -> Option<&HashIndex> {
        self.indexes
            .iter()
            .find(|((ix, iy), _)| ix.as_slice() == x && iy.as_slice() == y)
            .map(|(_, idx)| idx)
    }

    /// The registered index whose posting lists are shortest on average —
    /// the one with the most keys (ties: the first registered). Any index
    /// can locate a row, its key being a projection of the row, but an
    /// `X = ∅` index lists the whole relation under its one key.
    pub(crate) fn lookup_index(&self) -> Option<&HashIndex> {
        // `max_by_key` keeps the last of equal maxima, hence `rev`.
        self.indexes
            .iter()
            .rev()
            .max_by_key(|(_, idx)| idx.num_keys())
            .map(|(_, idx)| idx)
    }

    /// The row id of one stored copy of `cells`: probes one posting list of
    /// [`Self::lookup_index`], or scans the table when no index is
    /// registered.
    pub(crate) fn find_copy(&self, cells: &[Cell]) -> Option<u32> {
        let Some(idx) = self.lookup_index() else {
            return self.table.find_row(cells).map(|rid| rid as u32);
        };
        let key: RowBuf = idx.x().iter().map(|&c| cells[c]).collect();
        idx.all(&key)
            .iter()
            .copied()
            .find(|&rid| self.table.row(rid as usize) == cells)
    }

    /// The row id `op` will act on: the append position for an insert, one
    /// stored copy of `cells` for a delete (`None` if no copy is stored).
    pub(crate) fn slot_for(&self, op: RowOp, cells: &[Cell]) -> Option<u32> {
        match op {
            RowOp::Insert => Some(self.table.len() as u32),
            RowOp::Delete => self.find_copy(cells),
        }
    }

    /// The one place a single row enters or leaves the table: applies `op`
    /// to `cells` at `rid` (from [`Self::slot_for`] on this same state) and
    /// maintains every registered index in place — amortized O(columns)
    /// per index for an insert; a delete is tombstone-free: the table's
    /// last row is swapped into the hole and its postings re-pointed.
    pub(crate) fn apply_row(&mut self, op: RowOp, rid: u32, cells: &[Cell]) {
        let RelationShard { table, indexes, .. } = self;
        match op {
            RowOp::Insert => {
                debug_assert_eq!(
                    rid as usize,
                    table.len(),
                    "insert slot is the append position"
                );
                table.push(cells);
                for (_, idx) in indexes.iter_mut() {
                    idx.insert_row(rid, cells, table);
                }
            }
            RowOp::Delete => {
                for (_, idx) in indexes.iter_mut() {
                    idx.remove_row(rid, cells, table);
                }
                if let Some(moved_from) = table.swap_remove(rid as usize) {
                    let moved: Vec<Cell> = table.row(rid as usize).to_vec();
                    for (_, idx) in indexes.iter_mut() {
                        idx.reindex_row(moved_from as u32, rid, &moved);
                    }
                }
            }
        }
    }

    /// Payload of a copy-on-write clone of this shard, in table cells. The
    /// clone copies the indices too ([`HashIndex::approx_bytes`] each): on
    /// the TPCH instance they come to 2.6× the bytes of the cells counted
    /// here (149 MB beside 58 MB at SF 32).
    pub fn clone_cells(&self) -> u64 {
        (self.table.len() * self.table.arity()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::tests::cells;

    #[test]
    fn find_copy_probes_the_index_with_the_most_keys_not_the_first() {
        // 10K rows, three per key; the `X = ∅` index is registered first.
        let mut shard = RelationShard::new(Table::new(RelId(0), 2));
        for i in 0..10_000 {
            shard.table.push(&cells(&[i / 3, i % 5]));
        }
        for (x, y) in [(vec![], vec![1]), (vec![0], vec![1])] {
            let idx = HashIndex::build(&shard.table, &x, &y);
            shard.indexes.push(((x, y), idx));
        }
        let chosen = shard.lookup_index().expect("two indices registered");
        assert_eq!(chosen.x(), &[0], "the ∅ index lists all 10K rows");
        let probe = cells(&[1_000, 1]);
        assert_eq!(chosen.all(&probe[..1]), &[3_000, 3_001, 3_002]);
        assert_eq!(shard.find_copy(&probe), Some(3_001));
        assert_eq!(shard.find_copy(&cells(&[1_000, 4])), None);

        // Ties go to the first registered; no index means the table scan.
        shard.indexes.swap(0, 1);
        let same_keys = HashIndex::build(&shard.table, &[0], &[0]);
        shard.indexes.push(((vec![0], vec![0]), same_keys));
        assert_eq!(shard.lookup_index().unwrap().y(), &[1]);
        shard.indexes.clear();
        assert!(shard.lookup_index().is_none());
        assert_eq!(shard.find_copy(&probe), Some(3_001));
    }
}
