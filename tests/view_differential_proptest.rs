//! Differential proof that a registered view is always current: random
//! interleavings of served inserts, deletes, bulk loads, bulk updates and
//! restarts over the same log, and after **every** one of them
//! [`Server::view_result`] must equal the conventional baseline in
//! `FullScan` mode — no index, no bounded plan, nothing shared with the
//! code under test — on the current snapshot. The schema is shaped like
//! the paper's TFACC workload (a multi-relation join).
//!
//! Value domains are deliberately tiny so the interleavings hit every
//! interesting regime: duplicate copies of the same row (bag storage — a
//! delete removes one copy and the answer only changes at the last),
//! deletions of rows that were never inserted (no-ops), and
//! retract-then-rederive churn.
//!
//! Runs 256 interleavings by default (the shim's deterministic per-test
//! seeding keeps the normal CI job reproducible); `PROPTEST_CASES=512` is
//! CI's scheduled deep-fuzz gate.

use bounded_cq::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

fn full_scan(db: &Database, q: &SpcQuery, a: &AccessSchema) -> ResultSet {
    let out = baseline(
        db,
        q,
        a,
        BaselineOptions {
            mode: BaselineMode::FullScan,
            work_budget: None,
        },
    )
    .unwrap();
    out.result().expect("no budget, so it finishes").clone()
}

// --- TFACC-shaped: accidents joined with their vehicles ------------------

fn tfacc_catalog() -> Arc<Catalog> {
    Catalog::from_names(&[
        ("accident", &["aid", "district_id", "severity"]),
        ("vehicle", &["aid", "vtype"]),
    ])
    .unwrap()
}

fn tfacc_access() -> AccessSchema {
    let mut a = AccessSchema::new(tfacc_catalog());
    a.add("accident", &["district_id"], &["aid", "severity"], 16)
        .unwrap();
    a.add("accident", &["aid"], &["district_id", "severity"], 4)
        .unwrap();
    a.add("vehicle", &["aid"], &["vtype"], 8).unwrap();
    a
}

/// Vehicles involved in district-1 accidents (the TFACC join shape).
fn tfacc_query() -> SpcQuery {
    SpcQuery::builder(tfacc_catalog(), "district_vehicles")
        .atom("accident", "ac")
        .atom("vehicle", "v")
        .eq_const(("ac", "district_id"), 1)
        .eq(("ac", "aid"), ("v", "aid"))
        .project(("ac", "aid"))
        .project(("v", "vtype"))
        .build()
        .unwrap()
}

proptest! {
    // 256 interleavings by default; PROPTEST_CASES overrides.
    #![proptest_config(ProptestConfig::default())]

    /// The registered view stays equal to the full-scan baseline over the
    /// current snapshot, `Server::delete` bumps the epoch exactly when a
    /// row was removed, and snapshots taken before a delete keep the row.
    #[test]
    fn served_interleavings_maintain_views_with_epoch_isolation(
        initial_acc in prop::collection::vec([0..4i64, 0..3i64, 0..3i64], 0..5),
        ops in prop::collection::vec((0..9u8, any::<bool>(), [0..4i64, 0..3i64, 0..3i64]), 1..8),
    ) {
        let a = tfacc_access();
        let q = tfacc_query();
        let log = Arc::new(MemLog::new());
        let open = || {
            let (server, _, ids) = Server::open(
                Arc::clone(&log) as Arc<dyn bounded_cq::durability::LogStorage>,
                a.clone(),
                ServerConfig::default(),
                DurabilityConfig { policy: SyncPolicy::Always },
                std::slice::from_ref(&q),
            )
            .unwrap();
            (server, ids[0])
        };
        let (mut server, mut view) = open();
        if !initial_acc.is_empty() {
            let flat: Vec<Value> = initial_acc.iter().flatten().map(|&v| Value::int(v)).collect();
            server.bulk_update(|db| {
                let accident = db.catalog().require_rel("accident").unwrap();
                db.bulk_loader(accident).push_rows(&flat);
            });
        }

        for (kind, into_accident, vals) in &ops {
            let (rel_name, row): (&str, Vec<Value>) = if *into_accident {
                ("accident", vec![Value::int(vals[0]), Value::int(vals[1]), Value::int(vals[2])])
            } else {
                ("vehicle", vec![Value::int(vals[0]), Value::int(vals[1])])
            };
            let epoch_before = server.epoch();
            let snap_before = server.snapshot();
            match kind {
                0..=2 => {
                    server.insert(rel_name, &row).unwrap();
                    prop_assert!(server.epoch() > epoch_before, "insert bumps the epoch");
                }
                3 | 4 => {
                    let rel = server.snapshot().catalog().require_rel(rel_name).unwrap();
                    let was_stored = snap_before.contains_row(rel, &row).unwrap();
                    let deleted = server.delete(rel_name, &row).unwrap();
                    prop_assert_eq!(deleted, was_stored, "delete reports presence");
                    if deleted {
                        prop_assert!(server.epoch() > epoch_before, "delete bumps the epoch");
                        prop_assert!(
                            snap_before.contains_row(rel, &row).unwrap(),
                            "pre-delete snapshot keeps the row"
                        );
                    } else {
                        prop_assert_eq!(server.epoch(), epoch_before, "no-op delete leaves the epoch");
                    }
                }
                5 => {
                    // Two copies at once through the chunked fast path.
                    let flat = [row.clone(), row.clone()].concat();
                    server.bulk_update(|db| {
                        let rel = db.catalog().require_rel(rel_name).unwrap();
                        db.bulk_loader(rel).push_rows(&flat);
                    });
                }
                6 => server.bulk_update(|db| {
                    db.insert(rel_name, &row).unwrap();
                }),
                7 => server.bulk_update(|db| {
                    db.delete(rel_name, &row).unwrap();
                }),
                8 => {
                    drop(server);
                    (server, view) = open();
                    prop_assert_eq!(server.epoch(), epoch_before, "restart reproduces the clock");
                }
                _ => unreachable!("the strategy above generates 0..9, got {kind}"),
            }
            prop_assert_eq!(snap_before.epoch(), epoch_before, "snapshots are frozen");
            let served = server.view_result(view).unwrap();
            let oracle = full_scan(&server.snapshot(), &q, &a);
            prop_assert_eq!(&served, &oracle, "view != baseline after op {} on {:?}", kind, row);
        }
    }
}
