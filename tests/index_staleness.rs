//! Audit: can a `HashIndex` ever serve stale postings after inserts — or
//! ghost rows after deletes?
//!
//! * [`Database::insert`] / [`Database::delete`] update every posting list
//!   in place; the maintained index must be indistinguishable from a
//!   from-scratch rebuild (as posting *sets* — tombstone-free swap-remove
//!   permutes row ids), a prepared bounded query must see rows inserted
//!   after the index was first built, and a delete-then-probe must never
//!   surface the deleted row — the regressions this file pins down.
//! * [`Database::bulk_loader`] is the only path that still **clears** the
//!   relation's indices, so a plan that runs before `build_indexes` fails
//!   loudly ("index … not built") instead of silently missing rows —
//!   verified here, for rows loaded and for rows deleted in that window.

use bounded_cq::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

fn setup() -> (Database, AccessSchema, Arc<Catalog>) {
    let catalog = Catalog::from_names(&[("friends", &["user_id", "friend_id"])]).unwrap();
    let mut a = AccessSchema::new(Arc::clone(&catalog));
    a.add("friends", &["user_id"], &["friend_id"], 100).unwrap();
    let mut db = Database::new(Arc::clone(&catalog));
    for i in 0..20i64 {
        db.insert("friends", &[Value::int(i % 5), Value::int(i)])
            .unwrap();
    }
    db.build_indexes(&a);
    (db, a, catalog)
}

fn friends_of(catalog: &Arc<Catalog>, user: i64) -> SpcQuery {
    SpcQuery::builder(Arc::clone(catalog), "friends_of")
        .atom("friends", "f")
        .eq_const(("f", "user_id"), user)
        .project(("f", "friend_id"))
        .build()
        .unwrap()
}

/// A bounded plan must see rows that `insert` added after the index
/// build — no stale postings, no missed answers.
#[test]
fn maintained_inserts_are_visible_to_bounded_plans() {
    let (mut db, a, catalog) = setup();
    let q = friends_of(&catalog, 2);
    let plan = qplan(&q, &a).unwrap();
    let before = eval_dq(&db, &plan, &a).unwrap();
    assert_eq!(before.result.len(), 4); // 2, 7, 12, 17

    db.insert("friends", &[Value::int(2), Value::int(999)])
        .unwrap();
    let after = eval_dq(&db, &plan, &a).unwrap();
    assert_eq!(after.result.len(), 5, "new row visible without a rebuild");
    assert!(after.result.contains(&[Value::int(999)]));

    // The maintained index is bit-for-bit equivalent to a rebuild: same
    // witness sets, same full postings, same max-witness count.
    let cid = bcq_core::access::ConstraintId(0);
    let maintained = db.index_for(a.constraint(cid)).unwrap().clone();
    let rebuilt = HashIndex::build(
        db.table(RelId(0)),
        a.constraint(cid).x(),
        a.constraint(cid).y(),
    );
    assert_eq!(maintained.max_witnesses(), rebuilt.max_witnesses());
    assert_eq!(maintained.num_keys(), rebuilt.num_keys());
    for key in (0..5i64).map(|u| db.symbols().try_encode_row(&[Value::int(u)]).unwrap()) {
        assert_eq!(maintained.witnesses(&key), rebuilt.witnesses(&key));
        assert_eq!(maintained.all(&key), rebuilt.all(&key));
    }
}

/// The bulk loader cannot serve stale data: it clears the indices, and
/// the bounded executor refuses to run without them.
#[test]
fn bulk_insert_fails_loudly_rather_than_serving_stale_postings() {
    let (mut db, a, catalog) = setup();
    let q = friends_of(&catalog, 2);
    let plan = qplan(&q, &a).unwrap();
    assert!(eval_dq(&db, &plan, &a).is_ok());

    db.bulk_loader(RelId(0))
        .push_rows(&[Value::int(2), Value::int(999)]);
    let err = eval_dq(&db, &plan, &a).unwrap_err();
    assert!(err.to_string().contains("not built"), "{err}");

    db.build_indexes(&a);
    let after = eval_dq(&db, &plan, &a).unwrap();
    assert_eq!(after.result.len(), 5);
}

/// A bounded plan must not see rows that `delete` removed — no ghost
/// postings — and the maintained index must stay equivalent to a
/// from-scratch rebuild after interleaved inserts and deletes.
#[test]
fn maintained_deletes_leave_no_ghost_rows() {
    let (mut db, a, catalog) = setup();
    let q = friends_of(&catalog, 2);
    let plan = qplan(&q, &a).unwrap();
    assert_eq!(eval_dq(&db, &plan, &a).unwrap().result.len(), 4); // 2, 7, 12, 17

    // Delete-then-probe: the deleted row must be gone immediately.
    assert!(db
        .delete("friends", &[Value::int(2), Value::int(7)])
        .unwrap()
        .is_some());
    let after = eval_dq(&db, &plan, &a).unwrap();
    assert_eq!(after.result.len(), 3, "no rebuild needed, no ghost row");
    assert!(!after.result.contains(&[Value::int(7)]));

    // Interleave: insert two, delete one of them and one original.
    db.insert("friends", &[Value::int(2), Value::int(100)])
        .unwrap();
    db.insert("friends", &[Value::int(2), Value::int(101)])
        .unwrap();
    assert!(db
        .delete("friends", &[Value::int(2), Value::int(100)])
        .unwrap()
        .is_some());
    assert!(db
        .delete("friends", &[Value::int(2), Value::int(17)])
        .unwrap()
        .is_some());
    let rs = eval_dq(&db, &plan, &a).unwrap().result;
    assert_eq!(rs.len(), 3); // 2, 12, 101
    assert!(rs.contains(&[Value::int(101)]));
    assert!(!rs.contains(&[Value::int(100)]));
    assert!(!rs.contains(&[Value::int(17)]));

    // The maintained index is equivalent to a from-scratch rebuild: same
    // keys, same posting sets, same witness coverage and max-witness count
    // (row ids may be permuted by swap-remove, so compare as sets).
    let cid = bcq_core::access::ConstraintId(0);
    let maintained = db.index_for(a.constraint(cid)).unwrap().clone();
    let rebuilt = HashIndex::build(
        db.table(RelId(0)),
        a.constraint(cid).x(),
        a.constraint(cid).y(),
    );
    assert_eq!(maintained.max_witnesses(), rebuilt.max_witnesses());
    assert_eq!(maintained.num_keys(), rebuilt.num_keys());
    let table = db.table(RelId(0));
    for key in (0..5i64).map(|u| db.symbols().try_encode_row(&[Value::int(u)]).unwrap()) {
        let rows_of = |rids: &[u32]| {
            let mut rows: Vec<Vec<Value>> = rids
                .iter()
                .map(|&rid| db.decode_row(table.row(rid as usize)))
                .collect();
            rows.sort();
            rows
        };
        assert_eq!(
            rows_of(maintained.all(&key)),
            rows_of(rebuilt.all(&key)),
            "posting sets agree"
        );
        assert_eq!(
            rows_of(maintained.witnesses(&key)),
            rows_of(rebuilt.witnesses(&key)),
            "witness sets agree"
        );
    }
}

/// A delete between a bulk load and its `build_indexes` cannot serve
/// ghosts either: the loader cleared the indices, the delete has none to
/// maintain, and the bounded executor refuses to run without them.
#[test]
fn bulk_delete_fails_loudly_rather_than_serving_ghost_postings() {
    let (mut db, a, catalog) = setup();
    let q = friends_of(&catalog, 2);
    let plan = qplan(&q, &a).unwrap();
    assert!(eval_dq(&db, &plan, &a).is_ok());

    drop(db.bulk_loader(RelId(0))); // even an empty load clears them
    assert!(db
        .delete("friends", &[Value::int(2), Value::int(7)])
        .unwrap()
        .is_some());
    let err = eval_dq(&db, &plan, &a).unwrap_err();
    assert!(err.to_string().contains("not built"), "{err}");

    db.build_indexes(&a);
    let after = eval_dq(&db, &plan, &a).unwrap();
    assert_eq!(after.result.len(), 3);
    assert!(!after.result.contains(&[Value::int(7)]));
}

/// End to end through the service: a prepared (cached) bounded query sees
/// rows inserted after the index build, by a row write and by a bulk load.
#[test]
fn prepared_query_sees_rows_inserted_after_index_build() {
    let (db, a, catalog) = setup();
    let server = Arc::new(Server::new(db, a, ServerConfig::default()));
    let template = SpcQuery::builder(Arc::clone(&catalog), "friends_of")
        .atom("friends", "f")
        .eq_param(("f", "user_id"), "uid")
        .project(("f", "friend_id"))
        .build()
        .unwrap();
    let mut session = server.session();
    let bind = |u: i64| {
        let mut b = BTreeMap::new();
        b.insert("uid".to_string(), Value::int(u));
        b
    };

    assert_eq!(
        session
            .query(&template, &bind(2))
            .unwrap()
            .rows()
            .unwrap()
            .len(),
        4
    );

    // Row write.
    server
        .insert("friends", &[Value::int(2), Value::int(999)])
        .unwrap();
    let r = session.query(&template, &bind(2)).unwrap();
    assert_eq!(r.rows().unwrap().len(), 5);
    assert!(r.stats.cache_hit, "served by the cached plan");

    // Bulk load (indices cleared and rebuilt inside the write).
    server.bulk_update(|db| {
        db.bulk_loader(RelId(0))
            .push_rows(&[Value::int(2), Value::int(1000)]);
    });
    let r = session.query(&template, &bind(2)).unwrap();
    assert_eq!(r.rows().unwrap().len(), 6);

    // Served delete: the cached plan must not see the ghost row.
    assert!(server
        .delete("friends", &[Value::int(2), Value::int(999)])
        .unwrap());
    let r = session.query(&template, &bind(2)).unwrap();
    assert_eq!(r.rows().unwrap().len(), 5);
    assert!(r.stats.cache_hit, "plan survived the delete");
    assert!(!r.rows().unwrap().contains(&[Value::int(999)]));

    // Out-of-band delete: the indices are rebuilt, the plan keeps serving.
    server.bulk_update(|db| {
        db.delete("friends", &[Value::int(2), Value::int(1000)])
            .unwrap();
    });
    let r = session.query(&template, &bind(2)).unwrap();
    assert_eq!(r.rows().unwrap().len(), 4);
}
