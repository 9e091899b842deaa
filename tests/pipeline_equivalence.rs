//! Three-executor equivalence over the shared interpreter.
//!
//! `evalDQ`, the conventional baseline (all modes), and the RA evaluator
//! are different *access-path planners* over the same
//! `bcq-exec` pipeline engine; on every effectively bounded workload
//! query they must produce identical `ResultSet`s. This is the guard rail
//! for the single-join-implementation invariant: a bug in the shared
//! filter/join/project shows up as three-way agreement on a wrong answer
//! (covered by the independent oracle in `tests/oracle.rs`), while a
//! divergence between executors can only come from the access-path layer.
//!
//! The engine itself is held against the query-walking reference, per
//! executor, by `bcq-exec`'s own tests (`crates/exec/src/differential.rs`).

use bounded_cq::core::ra::RaExpr;
use bounded_cq::prelude::*;

fn check_dataset(ds: &Dataset, scale: f64) {
    let db = ds.build(scale);
    let mut checked = 0usize;
    for wq in ds.effectively_bounded_queries() {
        let plan = qplan(&wq.query, &ds.access).unwrap();
        let bounded = eval_dq(&db, &plan, &ds.access).unwrap();

        // Baseline, every mode.
        for mode in [
            BaselineMode::FullScan,
            BaselineMode::ConstIndex,
            BaselineMode::IndexJoin,
        ] {
            let opts = BaselineOptions {
                mode,
                work_budget: None,
            };
            let out = baseline(&db, &wq.query, &ds.access, opts).unwrap();
            assert_eq!(
                out.result().expect("no budget"),
                &bounded.result,
                "{} vs baseline {mode:?}",
                wq.query.name()
            );
        }

        // RA evaluator over the single-block expression (routes through the
        // compiled eval_dq).
        let ra = eval_ra(&db, &RaExpr::Spc(wq.query.clone()), &ds.access).unwrap();
        assert_eq!(ra.result, bounded.result, "{} vs eval_ra", wq.query.name());
        assert_eq!(
            ra.meter,
            bounded.meter,
            "{}: eval_ra meters differently",
            wq.query.name()
        );
        checked += 1;
    }
    assert!(
        checked > 0,
        "{}: no effectively bounded queries ran",
        ds.name
    );
}

#[test]
fn tfacc_three_executors_agree() {
    check_dataset(&bounded_cq::workload::tfacc::dataset(), 0.05);
}

#[test]
fn mot_three_executors_agree() {
    check_dataset(&bounded_cq::workload::mot::dataset(), 0.05);
}

#[test]
fn tpch_three_executors_agree() {
    check_dataset(&bounded_cq::workload::tpch::dataset(), 0.25);
}

/// The executors also agree through the value/cell boundary: a database
/// rebuilt from decoded value rows (fresh symbol table, different intern
/// order) yields the same answers.
#[test]
fn answers_survive_reinterning() {
    let ds = bounded_cq::workload::tpch::dataset();
    let db = ds.build(0.25);

    // Rebuild by decoding every row to values and re-inserting — symbol ids
    // will differ (insertion order differs per relation), answers must not.
    let mut db2 = Database::new(ds.catalog.clone());
    for (i, _) in ds.catalog.relations().iter().enumerate().rev() {
        let rel = RelId(i);
        let flat: Vec<Value> = db.value_rows(rel).flatten().collect();
        db2.bulk_loader(rel).push_rows(&flat);
    }
    db2.build_indexes(&ds.access);

    for wq in ds.effectively_bounded_queries().take(6) {
        let plan = qplan(&wq.query, &ds.access).unwrap();
        let a = eval_dq(&db, &plan, &ds.access).unwrap();
        let b = eval_dq(&db2, &plan, &ds.access).unwrap();
        assert_eq!(a.result, b.result, "{}", wq.query.name());
        assert_eq!(a.dq_tuples(), b.dq_tuples(), "{}", wq.query.name());
    }
}
