//! Property test for cache/epoch correctness: for random workloads —
//! random data, random maintained/bulk writes, random bindings — execution
//! through the serving layer (prepared, cached, epoch-snapshotted) must be
//! **indistinguishable** from running `eval_dq` from scratch on an
//! identically-loaded fresh database at every epoch, including across
//! bulk writes that drop and rebuild the indices — for the compiled
//! template and for the same query sent as literal text, which the plan
//! cache keys by shape.
//!
//! Runs 24 workloads in tier-1; `PROPTEST_CASES` overrides (CI's nightly
//! fuzz job runs 512).

use bounded_cq::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

fn catalog() -> Arc<Catalog> {
    Catalog::from_names(&[
        ("edge", &["src", "dst"]),
        ("label", &["node", "tag"]),
        ("audit", &["event"]),
    ])
    .unwrap()
}

fn access(cat: &Arc<Catalog>) -> AccessSchema {
    let mut a = AccessSchema::new(Arc::clone(cat));
    a.add("edge", &["src"], &["dst"], 64).unwrap();
    a.add("edge", &["dst"], &["src"], 64).unwrap();
    a.add("label", &["node"], &["tag"], 64).unwrap();
    a
}

/// Two-hop template: labels of nodes reachable in two hops from `?start`.
fn template(cat: &Arc<Catalog>) -> SpcQuery {
    SpcQuery::builder(Arc::clone(cat), "two_hop_labels")
        .atom("edge", "e1")
        .atom("edge", "e2")
        .atom("label", "l")
        .eq_param(("e1", "src"), "start")
        .eq(("e2", "src"), ("e1", "dst"))
        .eq(("l", "node"), ("e2", "dst"))
        .project(("l", "tag"))
        .build()
        .unwrap()
}

/// [`template`] as ad-hoc text, `start` written as a literal.
fn two_hop_sql(start: i64) -> String {
    format!(
        "SELECT l.tag FROM edge e1, edge e2, label l \
         WHERE e1.src = {start} AND e2.src = e1.dst AND l.node = e2.dst"
    )
}

/// One random mutation: relation, row values, and whether it goes through
/// the maintained single-writer path or a bulk update.
type Mutation = (bool, bool, i64, i64);

fn apply_reference(db: &mut Database, m: &Mutation) {
    let (is_edge, _, x, y) = *m;
    let (rel, row) = encode(is_edge, x, y);
    db.insert(rel, &row).unwrap();
}

fn encode(is_edge: bool, x: i64, y: i64) -> (&'static str, Vec<Value>) {
    if is_edge {
        ("edge", vec![Value::int(x), Value::int(y)])
    } else {
        ("label", vec![Value::int(x), Value::str(format!("t{y}"))])
    }
}

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn served_equals_fresh_on_random_workloads(
        initial in prop::collection::vec((any::<bool>(), 0..12i64, 0..12i64), 5..40),
        batches in prop::collection::vec(
            prop::collection::vec((any::<bool>(), any::<bool>(), 0..12i64, 0..12i64), 1..6),
            1..5,
        ),
        probes in prop::collection::vec(0..14i64, 4..10),
    ) {
        let cat = catalog();
        let a = access(&cat);
        let tpl = template(&cat);

        // The served side: one server, one cached plan, epochs advancing.
        let mut db = Database::new(Arc::clone(&cat));
        let mut reference_rows: Vec<Mutation> = Vec::new();
        for &(is_edge, x, y) in &initial {
            let (rel, row) = encode(is_edge, x, y);
            db.insert(rel, &row).unwrap();
            reference_rows.push((is_edge, false, x, y));
        }
        let server = Arc::new(Server::new(db, a.clone(), ServerConfig::default()));
        let mut session = server.session();

        let check = |session: &mut Session, reference_rows: &[Mutation], probes: &[i64]| {
            // The fresh side: a database rebuilt from scratch with the same
            // rows, indices built once, template instantiated per probe.
            let mut fresh_db = Database::new(Arc::clone(&cat));
            for m in reference_rows {
                apply_reference(&mut fresh_db, m);
            }
            fresh_db.build_indexes(&a);
            for &start in probes {
                let mut bind = BTreeMap::new();
                bind.insert("start".to_string(), Value::int(start));
                let served = session.query(&tpl, &bind).unwrap();
                let ground = tpl.instantiate(&bind);
                let plan = qplan(&ground, &a).unwrap();
                let fresh = eval_dq(&fresh_db, &plan, &a).unwrap();
                prop_assert_eq!(
                    served.rows().unwrap(),
                    &fresh.result,
                    "start={} epoch={}",
                    start,
                    served.stats.epoch
                );
                // The same request as literal text, through the shape key.
                let by_text = session
                    .query_sql("adhoc", &two_hop_sql(start), &BTreeMap::new())
                    .unwrap();
                prop_assert_eq!(
                    by_text.rows().unwrap(),
                    &fresh.result,
                    "text, start={} epoch={}",
                    start,
                    by_text.stats.epoch
                );
            }
        };

        check(&mut session, &reference_rows, &probes);
        for batch in &batches {
            for &(is_edge, bulk, x, y) in batch {
                let (rel, row) = encode(is_edge, x, y);
                if bulk {
                    // Around the maintained path: the indices are
                    // rebuilt inside the write, the cached plan is kept.
                    server.bulk_update(|db| db.insert(rel, &row).unwrap());
                } else {
                    server.insert(rel, &row).unwrap();
                }
                reference_rows.push((is_edge, bulk, x, y));
            }
            check(&mut session, &reference_rows, &probes);
        }

        // The template and the shape were each compiled exactly once
        // across all epochs and all literals.
        prop_assert_eq!(server.cache_stats().misses, 2);
        prop_assert_eq!(server.cache_stats().evictions, 0);
    }
}

/// Step by step, for an entry keyed by shape: writes to a relation the
/// shape does not read and writes to one it reads — maintained or bulk —
/// are all pure hits with fresh answers, and it is never recompiled. (The
/// name dates from when entries carried the epochs of their read
/// relations.)
#[test]
fn shape_entries_are_stamped_by_the_relations_they_read() {
    let cat = catalog();
    let a = access(&cat);
    let mut db = Database::new(Arc::clone(&cat));
    let mut rows: Vec<Mutation> = vec![
        (true, false, 1, 2),
        (true, false, 2, 3),
        (false, false, 3, 7),
    ];
    for m in &rows {
        apply_reference(&mut db, m);
    }
    let server = Arc::new(Server::new(db, a.clone(), ServerConfig::default()));
    let mut session = server.session();
    let none = BTreeMap::new();

    // Serves `start` as text, compares with a fresh `eval_dq`, and returns
    // the cache's (misses, hits) afterwards.
    let mut step = |rows: &[Mutation], start: i64, tag: &str| {
        let served = session
            .query_sql("adhoc", &two_hop_sql(start), &none)
            .unwrap();
        let mut fresh_db = Database::new(Arc::clone(&cat));
        for m in rows {
            apply_reference(&mut fresh_db, m);
        }
        fresh_db.build_indexes(&a);
        let ground = parse_spc(Arc::clone(&cat), "adhoc", &two_hop_sql(start)).unwrap();
        let fresh = eval_dq(&fresh_db, &qplan(&ground, &a).unwrap(), &a).unwrap();
        assert_eq!(served.rows().unwrap(), &fresh.result, "{tag}");
        let cs = server.cache_stats();
        assert_eq!(cs.evictions, 0, "{tag}");
        (cs.misses, cs.hits)
    };

    assert_eq!(step(&rows, 1, "first text compiles the shape"), (1, 0));
    assert_eq!(step(&rows, 2, "another literal: pure hit"), (1, 1));

    // Maintained writes to a relation the shape never reads.
    server.insert("audit", &[Value::int(1)]).unwrap();
    assert!(server.delete("audit", &[Value::int(1)]).unwrap());
    assert_eq!(step(&rows, 1, "unread relation wrote: pure hit"), (1, 2));

    // A maintained insert, then a maintained delete, on a read relation.
    let (rel, row) = encode(true, 3, 1);
    server.insert(rel, &row).unwrap();
    rows.push((true, false, 3, 1));
    assert_eq!(step(&rows, 2, "read relation inserted: hit"), (1, 3));
    assert_eq!(step(&rows, 1, "no write since: hit"), (1, 4));
    assert!(server.delete(rel, &row).unwrap());
    rows.pop();
    assert_eq!(step(&rows, 2, "read relation deleted: hit"), (1, 5));

    // A bulk write drops the relation's indices and rebuilds them inside
    // the same write: the entry is kept.
    let (rel, row) = encode(false, 2, 9);
    server.bulk_update(|db| db.insert(rel, &row).unwrap());
    rows.push((false, true, 2, 9));
    assert_eq!(step(&rows, 1, "bulk write: hit, not recompiled"), (1, 6));
    assert_eq!(server.metrics_snapshot().sql.requests, 7);
}
