//! Views, twice: the conclusion's "effectively bounded … using views",
//! and a served view that stays current under writes.
//!
//! 1. Define a view joining accidents to their nearest public-transport
//!    stops, materialize it, and *derive* sound access constraints for it
//!    from the base schema.
//! 2. A query over the view plans with a tighter bound than over the base
//!    tables.
//! 3. Register a dashboard query as a served view: each new accident
//!    report is a plain row write, and the next read of the dashboard
//!    re-runs its bounded plan — a handful of index probes whatever the
//!    size of the database.
//!
//! Run with: `cargo run --release --example materialized_views`

use bounded_cq::core::views::{expand_with_views, ViewDef};
use bounded_cq::exec::materialize_views;
use bounded_cq::prelude::*;
use bounded_cq::workload::tfacc;

fn main() -> core::result::Result<(), Box<dyn std::error::Error>> {
    // --- 1. a view over the TFACC base schema -------------------------
    let base = tfacc::catalog();
    let base_access = tfacc::access_schema();

    let view = ViewDef {
        name: "v_accident_stops".into(),
        query: SpcQuery::builder(base.clone(), "v_def")
            .atom("accident", "ac")
            .atom("accident_stop", "ast")
            .eq_const(("ac", "date"), 5)
            .eq(("ast", "aid"), ("ac", "aid"))
            .project(("ac", "aid"))
            .project(("ac", "district_id"))
            .project(("ast", "stop_id"))
            .build()
            .unwrap(),
    };
    let exp = expand_with_views(base.clone(), vec![view])?;
    let derived = exp.derive_view_constraints(&base_access)?;
    println!(
        "derived {} access constraints for the view (base had {})",
        derived.len() - base_access.len(),
        base_access.len()
    );
    for &cid in derived.for_relation(exp.view_rel(0)).iter().take(4) {
        println!("  {}", derived.constraint(cid).display(derived.catalog()));
    }

    // Copy a generated base instance into the expanded catalog and
    // materialize.
    let src = tfacc::generate(0.125, 7);
    let mut db = Database::new(exp.catalog().clone());
    for i in 0..base.len() {
        let rel = RelId(i);
        let flat: Vec<Value> = src.value_rows(rel).flatten().collect();
        db.bulk_loader(rel).push_rows(&flat);
    }
    let sizes = materialize_views(&mut db, &exp)?;
    println!("\nmaterialized v_accident_stops: {} rows", sizes[0]);
    db.build_indexes(&derived);

    // --- 2. query the view, boundedly ---------------------------------
    let q = SpcQuery::builder(exp.catalog().clone(), "stops_of_day5_accidents")
        .atom("v_accident_stops", "v")
        .eq_const(("v", "ac_aid"), 5 * 31) // some accident of date 5
        .project(("v", "ast_stop_id"))
        .build()
        .unwrap();
    match qplan(&q, &derived) {
        Ok(plan) => {
            let out = eval_dq(&db, &plan, &derived)?;
            println!(
                "view query: Σ M_i = {}, |DQ| = {}, {} row(s)",
                plan.cost_bound(),
                out.dq_tuples(),
                out.result.len()
            );
        }
        Err(e) => println!("view query not bounded: {e}"),
    }

    // --- 3. a served view over the base dashboard query ----------------
    let dashboard = SpcQuery::builder(base.clone(), "day5_vehicles")
        .atom("accident", "ac")
        .atom("vehicle", "ve")
        .eq_const(("ac", "date"), 5)
        .eq_const(("ac", "district_id"), 7)
        .eq(("ve", "aid"), ("ac", "aid"))
        .eq_const(("ve", "vtype"), 3)
        .project(("ve", "vid"))
        .build()
        .unwrap();
    let bound = qplan(&dashboard, &base_access)?.cost_bound();
    let server = Server::new(src, base_access, ServerConfig::default());
    let view = server.register_view(&dashboard)?;
    let before = server.view_result(view)?.len();
    println!("\ndashboard registered: {before} vehicle(s), Σ M_i = {bound}");

    // A new accident report arrives (date 5, district 7) with one vehicle.
    let aid = 10_000_000i64;
    let accident_row: Vec<Value> = vec![
        Value::int(aid),
        Value::int(5),  // date
        Value::int(12), // time slot
        Value::int(7),  // district
        Value::int(2),
        Value::int(1),
        Value::int(0),
        Value::int(0),
        Value::int(0),
        Value::int(30),
        Value::int(0),
        Value::int(1),
        Value::int(1),
        Value::int(7), // police_force = district % 52
        Value::int(0),
        Value::int(0),
    ];
    let vehicle_row: Vec<Value> = vec![
        Value::int(20_000_000),
        Value::int(aid),
        Value::int(3), // vtype
        Value::int(5),
        Value::int(55),
        Value::int(2),
        Value::int(1600),
        Value::int(4),
        Value::int(0),
        Value::int(0),
        Value::int(0),
        Value::int(1),
        Value::int(4),
        Value::int(1),
    ];
    // Two row writes (every index maintained in place; neither looks at
    // the view), then one read: the dashboard's stamps are behind, so it
    // re-runs its plan — at most Σ M_i tuples — and is current again.
    server.insert("accident", &accident_row)?;
    server.insert("vehicle", &vehicle_row)?;
    let now = server.view_result(view)?;
    assert!(now.contains(&[Value::int(20_000_000)]));
    assert_eq!(now.len(), before + 1);
    assert_eq!(
        server.view_result(view)?,
        now,
        "nothing written since: cached"
    );
    let evaluated = server.metrics_snapshot().writes.view_recomputes;
    assert_eq!(evaluated, 2, "the first read and the one after the writes");
    println!(
        "dashboard now: {} vehicle(s) after 2 insertions, 3 reads, {evaluated} plan runs",
        now.len()
    );
    Ok(())
}
