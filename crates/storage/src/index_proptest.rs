//! Property test for the postings layout: under random insert / delete
//! interleavings a maintained [`HashIndex`] stays indistinguishable, as
//! sets, from one built from scratch over the current table, and keeps the
//! coverage contract — across every change of representation an entry can
//! go through (inline ↔ spilled row ids, one list → two on the first
//! repeated `Y`-projection or past the scan limit, the `X = ∅` key) and at
//! every key width the index stores differently: `∅`, one cell, two cells,
//! and a three-column `RowBuf`.

use crate::index::{HashIndex, INLINE_RIDS, SCAN_LIMIT};
use crate::shard::{RelationShard, RowOp};
use crate::table::tests::cells;
use crate::table::Table;
use bcq_core::fx::FxHashSet;
use bcq_core::prelude::{Cell, RelId, RowBuf};
use proptest::prelude::*;

/// One step of a schedule, drawn as plain integers.
type Step = (u8, u8, u8);

fn y_set(table: &Table, rids: &[u32], y: &[usize]) -> FxHashSet<RowBuf> {
    rids.iter()
        .map(|&r| y.iter().map(|&c| table.row(r as usize)[c]).collect())
        .collect()
}

/// The maintained indices of `shard` against a rebuild of each.
fn check(shard: &RelationShard, step: &str) {
    let table = shard.table();
    for (x, y) in shard.index_specs() {
        let kept = shard.index(x, y).unwrap();
        let built = HashIndex::build(table, x, y);
        let at = format!("{step}, index {x:?} -> {y:?}");
        assert_eq!(kept.num_keys(), built.num_keys(), "{at}");
        assert_eq!(kept.max_witnesses(), built.max_witnesses(), "{at}");
        for (key, p) in kept.entries() {
            let mut all = p.all().to_vec();
            all.sort_unstable();
            assert_eq!(all, built.all(key), "{at}, key {key:?}");
            let witness_y = y_set(table, p.witnesses(), y);
            assert_eq!(witness_y, y_set(table, built.witnesses(key), y), "{at}");
            assert_eq!(witness_y, y_set(table, p.all(), y), "{at}: coverage");
            assert_eq!(witness_y.len(), p.witnesses().len(), "{at}: a repeat");
        }
    }
}

fn apply(shard: &mut RelationShard, op: RowOp, row: &[Cell]) {
    if let Some(rid) = shard.slot_for(op, row) {
        shard.apply_row(op, rid, row);
    }
}

/// Runs `steps` on a fresh `arity`-column shard, checking after each.
fn run(arity: usize, steps: &[Step]) {
    let mut shard = RelationShard::new(Table::new(RelId(0), arity));
    let mut specs: Vec<(Vec<usize>, Vec<usize>)> =
        vec![(vec![0], vec![1]), (vec![], vec![0]), (vec![], vec![1])];
    if arity >= 3 {
        specs.push((vec![0, 1], vec![2]));
        specs.push((vec![2], vec![0, 1]));
    }
    if arity == 4 {
        specs.push((vec![0, 1, 2], vec![3]));
    }
    for (x, y) in specs {
        shard.indexes.push(HashIndex::build(&shard.table, &x, &y));
    }
    // Values no random step draws, so a ramp's rows have `Y`s of their own.
    let mut fresh = 1_000i64;
    for (i, &(kind, k, v)) in steps.iter().enumerate() {
        // Skewed keys: three in four steps land on keys 0..3.
        let key = i64::from(if k % 4 == 0 { k % 24 } else { k % 3 });
        let row = |y: i64| cells(&[key, y, y % 2, y % 3][..arity]);
        match kind {
            // A row whose `Y` comes from a small domain: repeats are common.
            0..=4 => apply(&mut shard, RowOp::Insert, &row(i64::from(v % 5))),
            // Remove one stored row, wherever it is.
            5..=7 => {
                if !shard.table.is_empty() {
                    let rid = usize::from(v) % shard.table.len();
                    let row = shard.table.row(rid).to_vec();
                    apply(&mut shard, RowOp::Delete, &row);
                }
            }
            // Ramp a key with rows of distinct `Y` across a boundary — one
            // past the inline capacity, or one past the scan limit — then
            // take them away again, checking at every row.
            8 => {
                let n = [INLINE_RIDS, SCAN_LIMIT][usize::from(v % 2)] + 1;
                let ramp: Vec<Vec<Cell>> = (0..n as i64).map(|j| row(fresh + j)).collect();
                fresh += n as i64;
                for r in &ramp {
                    apply(&mut shard, RowOp::Insert, r);
                    check(&shard, &format!("step {i} ramp up"));
                }
                for r in &ramp {
                    apply(&mut shard, RowOp::Delete, r);
                    check(&shard, &format!("step {i} ramp down"));
                }
            }
            // The first repeat of a `Y` arrives at a key, and leaves.
            _ => {
                let r = row(fresh);
                fresh += 1;
                for op in [RowOp::Insert, RowOp::Insert, RowOp::Delete, RowOp::Delete] {
                    apply(&mut shard, op, &r);
                    check(&shard, &format!("step {i} repeat"));
                }
            }
        }
        check(&shard, &format!("step {i}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn maintained_equals_rebuilt_on_two_columns(
        steps in prop::collection::vec((0u8..10, 0u8..=255, 0u8..=255), 1..60),
    ) {
        run(2, &steps);
    }

    #[test]
    fn maintained_equals_rebuilt_on_three_columns(
        steps in prop::collection::vec((0u8..10, 0u8..=255, 0u8..=255), 1..60),
    ) {
        run(3, &steps);
    }

    #[test]
    fn maintained_equals_rebuilt_on_four_columns(
        steps in prop::collection::vec((0u8..10, 0u8..=255, 0u8..=255), 1..60),
    ) {
        run(4, &steps);
    }
}

/// Every boundary once, in a fixed order, whatever the seeds above draw.
#[test]
fn each_boundary_is_crossed_both_ways() {
    run(
        4,
        &[
            (8, 1, 0),
            (8, 1, 1),
            (9, 1, 0),
            (0, 1, 3),
            (8, 1, 1),
            (9, 1, 0),
        ],
    );
}
