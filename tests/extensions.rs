//! Integration coverage for the future-work extensions (advisor, RA,
//! views) against the real workloads.

use bounded_cq::core::advisor::advise;
use bounded_cq::core::qplan::qplan_template;
use bounded_cq::core::ra::{ra_effectively_bounded, RaExpr};
use bounded_cq::exec::eval_ra;
use bounded_cq::prelude::*;
use std::collections::BTreeMap;

#[path = "common/ra_oracle.rs"]
mod ra_oracle;
use ra_oracle::{full_scan, ra_oracle};

/// The advisor repairs every non-effectively-bounded workload query when
/// allowed to extend the dataset's access schema.
#[test]
fn advisor_repairs_all_workload_scan_queries() {
    for ds in all_datasets() {
        let non_eb: Vec<&SpcQuery> = ds
            .queries
            .iter()
            .filter(|w| !w.expect_effectively_bounded)
            .map(|w| &w.query)
            .collect();
        assert!(!non_eb.is_empty());
        let advice = advise(&non_eb, &ds.access);
        assert!(
            advice.unresolved.is_empty(),
            "{}: unresolved {:?}",
            ds.name,
            advice.unresolved
        );
        for q in &non_eb {
            assert!(
                ebcheck(q, &advice.extended).effectively_bounded,
                "{}: {} still not bounded",
                ds.name,
                q.name()
            );
        }
        // The advisor is economical: no more than a few proposals per query.
        assert!(
            advice.proposals.len() <= 3 * non_eb.len(),
            "{}: {} proposals for {} queries",
            ds.name,
            advice.proposals.len(),
            non_eb.len()
        );
    }
}

/// RA over the TPCH workload: difference of two certified-bounded blocks
/// evaluates boundedly and matches manual set algebra on the baseline.
#[test]
fn ra_difference_on_tpch() {
    let ds = bounded_cq::workload::tpch::dataset();
    let db = ds.build(1.0);

    // Parts customer 42 ordered by ship mode 3, minus those also shipped
    // with return flag 1.
    let shipped = |name: &str, extra: Option<(&str, i64)>| {
        let mut b = SpcQuery::builder(ds.catalog.clone(), name)
            .atom("orders", "o")
            .atom("lineitem", "l")
            .eq_const(("o", "o_custkey"), 42)
            .eq(("l", "l_orderkey"), ("o", "o_orderkey"))
            .eq_const(("l", "l_shipmode"), 3);
        if let Some((attr, v)) = extra {
            b = b.eq_const(("l", attr), v);
        }
        b.project(("l", "l_partkey")).build().unwrap()
    };
    let all_parts = shipped("all", None);
    let returned = shipped("returned", Some(("l_returnflag", 1)));

    let e = RaExpr::difference(
        RaExpr::Spc(all_parts.clone()),
        RaExpr::Spc(returned.clone()),
    );
    let report = ra_effectively_bounded(&e, &ds.access);
    assert!(report.effectively_bounded, "{:?}", report.failure);

    let out = eval_ra(&db, &e, &ds.access).unwrap();

    // Full scans and plain set algebra agree.
    let none = BTreeMap::new();
    assert_eq!(out.result, ra_oracle(&db, &e, &ds.access, &none));

    // One probe per candidate, each within the bound of the probe block's
    // plan (TPCH satisfies its access schema).
    let candidates = full_scan(&db, &all_parts, &ds.access).len() as u64;
    assert_eq!(out.probes, candidates);
    let pinned = returned.with_params(&[(returned.projection()[0], "part")]);
    let probe_bound = qplan_template(&pinned, &ds.access).unwrap().cost_bound();
    let base_bound = qplan(&all_parts, &ds.access).unwrap().cost_bound();
    assert!(
        u128::from(out.meter.tuples_fetched) <= base_bound + u128::from(candidates) * probe_bound,
        "{} fetched",
        out.meter.tuples_fetched
    );
}

/// CSV round-trip: dumping and reloading a dataset preserves query
/// answers (the path a user takes to run the pipeline on the real UK
/// data).
#[test]
fn csv_roundtrip_preserves_answers() {
    use bounded_cq::prelude::{dump_csv, load_csv};
    let ds = bounded_cq::workload::tpch::dataset();
    let db = ds.build(0.25);

    // Dump every relation, reload into a fresh database.
    let mut db2 = Database::new(ds.catalog.clone());
    for rel in ds.catalog.relations() {
        let mut buf = Vec::new();
        let dumped = dump_csv(&db, rel.name(), &mut buf).unwrap();
        let loaded = load_csv(&mut db2, rel.name(), buf.as_slice(), true).unwrap();
        assert_eq!(dumped, loaded, "{}", rel.name());
    }
    db2.build_indexes(&ds.access);
    assert_eq!(db.total_tuples(), db2.total_tuples());

    for wq in ds.effectively_bounded_queries().take(5) {
        let plan = qplan(&wq.query, &ds.access).unwrap();
        let a = eval_dq(&db, &plan, &ds.access).unwrap();
        let b = eval_dq(&db2, &plan, &ds.access).unwrap();
        assert_eq!(a.result, b.result, "{}", wq.query.name());
    }
}

/// RA union across datasets' own blocks stays certified and bounded.
#[test]
fn ra_union_of_bounded_blocks() {
    let ds = bounded_cq::workload::mot::dataset();
    let db = ds.build(0.1);
    let blocks: Vec<&SpcQuery> = ds
        .queries
        .iter()
        .filter(|w| w.expect_effectively_bounded && w.query.projection().len() == 1)
        .map(|w| &w.query)
        .take(2)
        .collect();
    assert_eq!(blocks.len(), 2);
    let e = RaExpr::union(
        RaExpr::Spc(blocks[0].clone()),
        RaExpr::Spc(blocks[1].clone()),
    );
    let report = ra_effectively_bounded(&e, &ds.access);
    assert!(report.effectively_bounded, "{:?}", report.failure);
    let out = eval_ra(&db, &e, &ds.access).unwrap();
    // Sanity: union size bounded by the sides' static bounds.
    let b0 = qplan(blocks[0], &ds.access).unwrap().cost_bound();
    let b1 = qplan(blocks[1], &ds.access).unwrap().cost_bound();
    assert!(u128::from(out.meter.tuples_fetched) <= b0 + b1);
}
