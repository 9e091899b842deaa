//! Service-level equivalence: answers served through the prepared-query
//! layer (plan cache, parameter slots, epoch snapshots) must be identical
//! to fresh evaluation — `eval_dq`, the baseline, and for RA expressions a
//! full-scan oracle — on every workload, and must stay identical across
//! epoch bumps (maintained inserts and bulk updates alike).

use bounded_cq::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

#[path = "common/ra_oracle.rs"]
mod ra_oracle;
use ra_oracle::{cases, photos, ra_oracle, Bindings};

/// Serves every effectively bounded workload query through the service and
/// checks the answers against fresh `eval_dq` and the baseline, before and
/// after epoch bumps.
fn check_dataset(ds: &Dataset, scale: f64) {
    let db = ds.build(scale);
    let server = Arc::new(Server::new(db, ds.access.clone(), ServerConfig::default()));
    let mut session = server.session();
    let no_bindings = BTreeMap::new();

    let check_all = |session: &mut Session, tag: &str| {
        let snapshot = session.server().snapshot();
        for wq in ds.effectively_bounded_queries() {
            let served = session
                .query(&wq.query, &no_bindings)
                .unwrap_or_else(|e| panic!("{} [{tag}]: {e}", wq.query.name()));
            assert_eq!(served.stats.lane, Lane::Bounded, "{}", wq.query.name());
            assert!(
                served.stats.compile_elapsed + served.stats.exec_elapsed
                    <= served.stats.total_elapsed,
                "{} [{tag}]: phase times exceed the end-to-end span",
                wq.query.name()
            );
            let plan = qplan(&wq.query, &ds.access).unwrap();
            let fresh = eval_dq(&snapshot, &plan, &ds.access).unwrap();
            assert_eq!(
                served.rows().unwrap(),
                &fresh.result,
                "{} [{tag}]: served != fresh eval_dq",
                wq.query.name()
            );
            let base =
                baseline(&snapshot, &wq.query, &ds.access, BaselineOptions::default()).unwrap();
            assert_eq!(
                served.rows().unwrap(),
                base.result().expect("no budget"),
                "{} [{tag}]: served != baseline",
                wq.query.name()
            );
        }
    };

    check_all(&mut session, "initial epoch");

    // Epoch bump 1: a maintained insert (re-inserting an existing row keeps
    // `D |= A`: witness sets dedup on Y, so no bound is violated).
    let epoch_before = server.epoch();
    let reinsert: Option<(String, Vec<Value>)> = (0..ds.catalog.relations().len()).find_map(|r| {
        let rel = RelId(r);
        server
            .snapshot()
            .value_rows(rel)
            .next()
            .map(|row| (ds.catalog.relation(rel).name().to_string(), row))
    });
    let (rel_name, row) = reinsert.expect("dataset has data");
    server.insert(&rel_name, &row).unwrap();
    assert!(server.epoch() > epoch_before, "insert bumps the epoch");
    check_all(&mut session, "after maintained insert");

    // Epoch bump 2: a bulk update around the maintained path (drops and
    // rebuilds indices inside the write).
    server.bulk_update(|db| {
        db.insert(&rel_name, &row).unwrap();
    });
    check_all(&mut session, "after bulk update");

    // Epoch bump 3: a maintained delete. Three copies of `row` are stored
    // by now (bag storage); deleting one keeps the distinct rows — and
    // therefore every answer — intact, while the epoch advances and the
    // pre-delete snapshot keeps its copy count.
    let pre_delete = server.snapshot();
    let epoch_before = server.epoch();
    assert!(server.delete(&rel_name, &row).unwrap());
    assert!(server.epoch() > epoch_before, "delete bumps the epoch");
    assert_eq!(pre_delete.epoch(), epoch_before, "old snapshot is frozen");
    let rel = ds.catalog.rel_id(&rel_name).unwrap();
    assert_eq!(
        pre_delete.table(rel).len(),
        server.snapshot().table(rel).len() + 1,
        "reader opened before the delete still sees the removed copy"
    );
    check_all(&mut session, "after maintained delete");

    // The cache compiled each query once; every later request hit.
    let cs = server.cache_stats();
    let queries = ds.effectively_bounded_queries().count() as u64;
    assert_eq!(cs.misses, queries, "one compile per distinct query");
    assert_eq!(cs.hits, 3 * queries, "subsequent epochs served from cache");
}

#[test]
fn tfacc_served_equals_fresh() {
    check_dataset(&bounded_cq::workload::tfacc::dataset(), 0.05);
}

#[test]
fn mot_served_equals_fresh() {
    check_dataset(&bounded_cq::workload::mot::dataset(), 0.05);
}

#[test]
fn tpch_served_equals_fresh() {
    check_dataset(&bounded_cq::workload::tpch::dataset(), 0.5);
}

/// Parameterized templates: one cached plan must agree with per-binding
/// instantiate+plan+execute across many bindings and across epochs.
#[test]
fn prepared_template_equals_instantiated_plans_across_epochs() {
    let catalog = Catalog::from_names(&[
        ("in_album", &["photo_id", "album_id"]),
        ("friends", &["user_id", "friend_id"]),
        ("tagging", &["photo_id", "tagger_id", "taggee_id"]),
    ])
    .unwrap();
    let mut access = AccessSchema::new(Arc::clone(&catalog));
    access
        .add("in_album", &["album_id"], &["photo_id"], 1000)
        .unwrap();
    access
        .add("friends", &["user_id"], &["friend_id"], 5000)
        .unwrap();
    access
        .add("tagging", &["photo_id", "taggee_id"], &["tagger_id"], 8)
        .unwrap();

    let mut db = Database::new(Arc::clone(&catalog));
    for i in 0..200i64 {
        db.insert(
            "in_album",
            &[
                Value::str(format!("p{i}")),
                Value::str(format!("a{}", i % 20)),
            ],
        )
        .unwrap();
        db.insert(
            "friends",
            &[
                Value::str(format!("u{}", i % 40)),
                Value::str(format!("u{}", (i * 7 + 1) % 40)),
            ],
        )
        .unwrap();
        db.insert(
            "tagging",
            &[
                Value::str(format!("p{i}")),
                Value::str(format!("u{}", (i * 7 + 1) % 40)),
                Value::str(format!("u{}", i % 40)),
            ],
        )
        .unwrap();
    }
    let server = Arc::new(Server::new(db, access.clone(), ServerConfig::default()));

    let template = SpcQuery::builder(Arc::clone(&catalog), "tpl")
        .atom("in_album", "ia")
        .atom("friends", "f")
        .atom("tagging", "t")
        .eq_param(("ia", "album_id"), "aid")
        .eq_param(("f", "user_id"), "uid")
        .eq(("ia", "photo_id"), ("t", "photo_id"))
        .eq(("t", "tagger_id"), ("f", "friend_id"))
        .eq_param(("t", "taggee_id"), "uid")
        .project(("ia", "photo_id"))
        .build()
        .unwrap();

    let mut session = server.session();
    for round in 0..3 {
        let snapshot = server.snapshot();
        for i in 0..30i64 {
            let mut bind = BTreeMap::new();
            bind.insert("aid".to_string(), Value::str(format!("a{}", i % 25)));
            bind.insert("uid".to_string(), Value::str(format!("u{}", (i * 3) % 50)));
            let served = session.query(&template, &bind).unwrap();

            let ground = template.instantiate(&bind);
            let plan = qplan(&ground, &access).unwrap();
            let fresh = eval_dq(&snapshot, &plan, &access).unwrap();
            assert_eq!(
                served.rows().unwrap(),
                &fresh.result,
                "round {round}, binding {i}"
            );
        }
        // Bump the epoch between rounds: new tagging rows change answers.
        server
            .insert(
                "tagging",
                &[
                    Value::str(format!("p{}", round * 3)),
                    Value::str(format!("u{}", (round * 7 + 1) % 40)),
                    Value::str(format!("u{}", round % 40)),
                ],
            )
            .unwrap();
    }
    assert_eq!(server.cache_stats().misses, 1, "one plan served everything");
}

/// RA expressions served through the bounded-RA lane match the full-scan
/// oracle on the snapshot they ran at — the whole expression matrix, ground
/// and templated, before and after an insert and a delete, the later rounds
/// served from the plan cache.
#[test]
fn served_ra_equals_fresh_eval_ra() {
    let (db, access) = photos();
    let cases = cases(db.catalog());
    let server = Arc::new(Server::new(db, access.clone(), ServerConfig::default()));
    let mut session = server.session();
    let mut check_all = |tag: &str, cached: bool| {
        let snapshot = server.snapshot();
        for case in &cases {
            for b in &case.bindings {
                let served = session
                    .query_ra(&case.expr, b)
                    .unwrap_or_else(|e| panic!("{} [{tag}]: {e}", case.name));
                assert_eq!(served.stats.lane, Lane::BoundedRa, "{}", case.name);
                assert_eq!(
                    served.rows().unwrap(),
                    &ra_oracle(&snapshot, &case.expr, &access, b),
                    "{} {b:?} [{tag}]",
                    case.name
                );
                assert!(
                    served.stats.cache_hit || (!cached && b == &case.bindings[0]),
                    "{} {b:?} [{tag}]: one compile per expression",
                    case.name
                );
            }
        }
    };

    check_all("initial epoch", false);
    let compiled = server.cache_stats().misses;

    // u0 is now tagged in p2 as well: answers on both sides of every
    // filter move.
    server
        .insert(
            "tagging",
            &[Value::str("p2"), Value::str("u9"), Value::str("u0")],
        )
        .unwrap();
    check_all("after the insert", true);

    // p3 leaves album a0, and u1 unfriends u0: candidates disappear.
    for (rel, row) in [("in_album", ["p3", "a0"]), ("friends", ["u1", "u0"])] {
        let row = row.map(Value::str);
        assert!(server.delete(rel, &row).unwrap(), "{rel} row was stored");
    }
    check_all("after the deletes", true);
    assert_eq!(
        server.cache_stats().misses,
        compiled,
        "nothing compiled after the first round"
    );
}

/// One prepared difference serves 1,000 distinct bindings from one cache
/// entry, every answer equal to the oracle's: nothing about a request —
/// not its bindings, not its candidate rows — reaches the planner.
#[test]
fn one_ra_cache_entry_serves_a_thousand_bindings() {
    const USERS: i64 = 1000;
    let catalog = Catalog::from_names(&[("friends", &["user_id", "friend_id"])]).unwrap();
    let mut access = AccessSchema::new(Arc::clone(&catalog));
    access
        .add("friends", &["user_id"], &["friend_id"], 3)
        .unwrap();
    let mut db = Database::new(Arc::clone(&catalog));
    for u in 0..USERS {
        for k in 1..=3 {
            db.insert("friends", &[Value::int(u), Value::int((u + k) % USERS)])
                .unwrap();
        }
    }
    let friends_of = |slot: &str| {
        let q = SpcQuery::builder(Arc::clone(&catalog), slot)
            .atom("friends", "f")
            .eq_param(("f", "user_id"), slot)
            .project(("f", "friend_id"))
            .build()
            .unwrap();
        bounded_cq::core::ra::RaExpr::Spc(q)
    };
    // Friends of ?a who are not friends of ?b.
    let expr = bounded_cq::core::ra::RaExpr::difference(friends_of("a"), friends_of("b"));

    let server = Arc::new(Server::new(db, access.clone(), ServerConfig::default()));
    let mut session = server.session();
    let snapshot = server.snapshot();
    let mut sizes = [0usize; 4];
    for u in 0..USERS {
        // ?b is ?a itself, or one of the next three users: 0 to 3 of ?a's
        // friends survive.
        let b: Bindings = [("a", u), ("b", (u + u % 4) % USERS)]
            .into_iter()
            .map(|(slot, v)| (slot.to_string(), Value::int(v)))
            .collect();
        let served = session.query_ra(&expr, &b).unwrap();
        let rows = served.rows().unwrap();
        assert_eq!(rows, &ra_oracle(&snapshot, &expr, &access, &b), "{b:?}");
        assert_eq!(served.stats.cache_hit, u > 0);
        sizes[rows.len()] += 1;
    }
    assert_eq!(sizes, [250; 4], "every answer size occurs");
    assert_eq!(
        server.cache_stats().misses,
        1,
        "one compile served them all"
    );
}

/// Mixed insert/delete epochs: every mutation publishes a new snapshot;
/// readers opened before a delete still evaluate over the old rows, while
/// requests after it see the retraction — and the served answer always
/// equals a fresh `eval_dq` over the snapshot the request ran at.
#[test]
fn snapshot_readers_span_mixed_insert_delete_epochs() {
    let catalog = Catalog::from_names(&[("friends", &["user_id", "friend_id"])]).unwrap();
    let mut access = AccessSchema::new(Arc::clone(&catalog));
    access
        .add("friends", &["user_id"], &["friend_id"], 100)
        .unwrap();
    let mut db = Database::new(Arc::clone(&catalog));
    for f in 0..4i64 {
        db.insert("friends", &[Value::int(1), Value::int(f)])
            .unwrap();
    }
    let server = Arc::new(Server::new(db, access.clone(), ServerConfig::default()));
    let q = SpcQuery::builder(Arc::clone(&catalog), "friends_of_1")
        .atom("friends", "f")
        .eq_const(("f", "user_id"), 1)
        .project(("f", "friend_id"))
        .build()
        .unwrap();
    let plan = qplan(&q, &access).unwrap();
    let mut session = server.session();
    let no_bindings = BTreeMap::new();

    // Interleave epochs: insert 4, delete 0, delete 9 (no-op), insert 5,
    // delete 4. Hold a snapshot at every step.
    let mut snapshots = vec![server.snapshot()];
    server
        .insert("friends", &[Value::int(1), Value::int(4)])
        .unwrap();
    snapshots.push(server.snapshot());
    assert!(server
        .delete("friends", &[Value::int(1), Value::int(0)])
        .unwrap());
    snapshots.push(server.snapshot());
    assert!(!server
        .delete("friends", &[Value::int(1), Value::int(9)])
        .unwrap());
    server
        .insert("friends", &[Value::int(1), Value::int(5)])
        .unwrap();
    snapshots.push(server.snapshot());
    assert!(server
        .delete("friends", &[Value::int(1), Value::int(4)])
        .unwrap());
    snapshots.push(server.snapshot());

    // Every historical snapshot still evaluates to its own epoch's answer.
    let expect: [&[i64]; 5] = [
        &[0, 1, 2, 3],
        &[0, 1, 2, 3, 4],
        &[1, 2, 3, 4],
        &[1, 2, 3, 4, 5],
        &[1, 2, 3, 5],
    ];
    for (i, (snap, want)) in snapshots.iter().zip(expect).enumerate() {
        let out = eval_dq(snap, &plan, &access).unwrap();
        let want: Vec<Box<[Value]>> = want.iter().map(|&f| vec![Value::int(f)].into()).collect();
        assert_eq!(
            out.result.rows(),
            &want[..],
            "snapshot {i} sees its epoch's rows"
        );
    }
    // Epochs are strictly increasing across the mutation history.
    assert!(snapshots.windows(2).all(|w| w[0].epoch() < w[1].epoch()));

    // A request now runs at the latest epoch and sees the retractions.
    let served = session.query(&q, &no_bindings).unwrap();
    assert_eq!(served.stats.epoch, snapshots.last().unwrap().epoch());
    assert_eq!(
        served.rows().unwrap(),
        &eval_dq(&server.snapshot(), &plan, &access).unwrap().result
    );
    assert!(!served.rows().unwrap().contains(&[Value::int(4)]));
}

/// Unbounded queries served through the budgeted lane match the baseline's
/// answer when the budget suffices.
#[test]
fn served_unbounded_equals_baseline() {
    for ds in all_datasets() {
        let db = ds.build(match ds.name {
            "TPCH" => 0.25,
            _ => 0.03125,
        });
        let server = Arc::new(Server::new(
            db,
            ds.access.clone(),
            ServerConfig {
                plan_cache_capacity: 64,
                policy: AdmissionPolicy::Budgeted(u64::MAX),
                ..ServerConfig::default()
            },
        ));
        let mut session = server.session();
        let no_bindings = BTreeMap::new();
        for wq in ds.queries.iter().filter(|w| !w.expect_effectively_bounded) {
            if wq.query.has_placeholders() {
                continue;
            }
            let served = session.query(&wq.query, &no_bindings).unwrap();
            assert_eq!(served.stats.lane, Lane::Unbounded, "{}", wq.query.name());
            let fresh = baseline(
                &server.snapshot(),
                &wq.query,
                &ds.access,
                BaselineOptions::default(),
            )
            .unwrap();
            assert_eq!(
                served.rows().unwrap(),
                fresh.result().unwrap(),
                "{}",
                wq.query.name()
            );
        }
    }
}
