//! Snapshot consistency under the sharded store: a held snapshot is a
//! **frozen vector clock** — its global epoch, every per-relation epoch,
//! and every cross-relation invariant stay exactly as they were when the
//! snapshot was taken, while writers advance other shards underneath —
//! and no write, to a relation a cached plan reads or to any other, costs
//! the plan cache anything but a hit.
//!
//! Three layers of evidence:
//!
//! * a property test driving random per-relation write schedules against
//!   snapshots taken at random points;
//! * a property test driving random writes against a server with two
//!   cached plans of disjoint read sets, checking every later lookup is
//!   a hit and nothing is ever recompiled;
//! * a threaded stress test (run in release mode in CI) with writers
//!   pinned to disjoint relations and readers asserting cross-relation
//!   consistency of a paired-row invariant.

use bounded_cq::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn catalog() -> Arc<Catalog> {
    Catalog::from_names(&[
        ("edge", &["src", "dst"]),
        ("label", &["node", "tag"]),
        ("audit", &["node", "note"]),
    ])
    .unwrap()
}

fn access(cat: &Arc<Catalog>) -> AccessSchema {
    let mut a = AccessSchema::new(Arc::clone(cat));
    a.add("edge", &["src"], &["dst"], 64).unwrap();
    a.add("label", &["node"], &["tag"], 64).unwrap();
    a.add("audit", &["node"], &["note"], 64).unwrap();
    a
}

const RELS: [&str; 3] = ["edge", "label", "audit"];

fn row_for(rel: usize, x: i64, y: i64) -> Vec<Value> {
    match rel {
        0 => vec![Value::int(x), Value::int(y)],
        1 => vec![Value::int(x), Value::str(format!("t{y}"))],
        _ => vec![Value::int(x), Value::str(format!("n{y}"))],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random write schedules over three relations; a snapshot taken after
    /// every prefix must keep its entire vector clock, row counts, and
    /// shard pointers frozen while later writes land elsewhere — and the
    /// vector clock must advance exactly on the touched relation.
    #[test]
    fn snapshots_freeze_the_vector_clock(
        writes in prop::collection::vec((0..3usize, any::<bool>(), 0..10i64, 0..10i64), 1..40),
    ) {
        let cat = catalog();
        let a = access(&cat);
        let mut db = Database::new(Arc::clone(&cat));
        db.build_indexes(&a);
        let shared = SharedDb::new(db);

        let mut snapshots: Vec<Arc<Database>> = vec![shared.snapshot()];
        for &(rel, row_write, x, y) in &writes {
            let clock = |i: usize| shared.snapshot().epoch_of(RelId(i));
            let before: Vec<u64> = (0..3).map(clock).collect();
            let row = row_for(rel, x, y);
            shared.write(|d| {
                if row_write {
                    d.insert(RELS[rel], &row).unwrap();
                } else {
                    d.bulk_loader(RelId(rel)).push_rows(&row);
                    d.build_indexes(&a);
                }
            });
            // The vector clock advanced on the touched relation only.
            for (i, &prev) in before.iter().enumerate() {
                if i == rel {
                    prop_assert!(clock(i) > prev);
                } else {
                    prop_assert_eq!(clock(i), prev, "untouched component");
                }
            }
            snapshots.push(shared.snapshot());
        }

        // Every historical snapshot is a frozen vector clock whose row
        // counts replay the write prefix, and consecutive snapshots share
        // the shards the intervening write did not touch.
        for (i, snap) in snapshots.iter().enumerate() {
            let prefix = &writes[..i];
            for rel in 0..3usize {
                let expect = prefix.iter().filter(|w| w.0 == rel).count();
                prop_assert_eq!(snap.table(RelId(rel)).len(), expect, "snapshot {} rel {}", i, rel);
            }
            if i > 0 {
                let touched = writes[i - 1].0;
                for rel in 0..3usize {
                    let same = Arc::ptr_eq(snapshots[i - 1].shard(RelId(rel)), snap.shard(RelId(rel)));
                    prop_assert_eq!(same, rel != touched, "shard {} sharing across write {}", rel, i);
                }
            }
        }
    }

    /// Two cached plans with disjoint read sets (edge-only and label-only):
    /// whichever relation a random write lands on — `edge`, `label`, or
    /// `audit`, which neither plan reads — both plans stay cached and both
    /// lookups are hits. (The name dates from when a write to a read
    /// relation cost its plans an index re-check.)
    #[test]
    fn cache_revalidates_iff_a_read_relation_moved(
        writes in prop::collection::vec((0..3usize, any::<bool>(), 0..10i64, 0..10i64), 1..25),
    ) {
        let cat = catalog();
        let a = access(&cat);
        let mut db = Database::new(Arc::clone(&cat));
        db.build_indexes(&a);
        let server = Arc::new(Server::new(db, a.clone(), ServerConfig::default()));
        let mut session = server.session();

        let edge_q = SpcQuery::builder(Arc::clone(&cat), "out_edges")
            .atom("edge", "e")
            .eq_param(("e", "src"), "n")
            .project(("e", "dst"))
            .build()
            .unwrap();
        let label_q = SpcQuery::builder(Arc::clone(&cat), "labels")
            .atom("label", "l")
            .eq_param(("l", "node"), "n")
            .project(("l", "tag"))
            .build()
            .unwrap();
        let mut bind = BTreeMap::new();
        bind.insert("n".to_string(), Value::int(1));
        session.query(&edge_q, &bind).unwrap();
        session.query(&label_q, &bind).unwrap();
        prop_assert_eq!(server.cache_stats().misses, 2);

        for (i, &(rel, bulk, x, y)) in writes.iter().enumerate() {
            let row = row_for(rel, x, y);
            if bulk {
                server.bulk_update(|d| d.bulk_loader(RelId(rel)).push_rows(&row));
            } else {
                server.insert(RELS[rel], &row).unwrap();
            }
            // Re-prepare both plans: pure hits, whatever was written.
            session.query(&edge_q, &bind).unwrap();
            session.query(&label_q, &bind).unwrap();
            let cs = server.cache_stats();
            prop_assert_eq!(cs.hits, 2 * (i as u64 + 1), "write to {}", RELS[rel]);
            prop_assert_eq!(cs.misses, 2, "plans never recompiled");
        }
    }
}

/// Threaded stress: one writer per relation hammers its own shard through
/// the served row-write path while reader threads take snapshots
/// and assert (a) the snapshot's vector clock and row counts are frozen,
/// (b) cross-relation reads are mutually consistent — the edge writer
/// inserts an `edge` row and a matching `audit` row under one
/// `bulk_update`, so in *every* snapshot the two relations agree — and
/// (c) cached plans keep serving without recompilation. Run in release
/// mode in CI (`cargo test --release --test sharded_snapshot_proptest`).
#[test]
fn threaded_snapshot_consistency_stress() {
    let cat = catalog();
    let a = access(&cat);
    let mut db = Database::new(Arc::clone(&cat));
    db.build_indexes(&a);
    let server = Arc::new(Server::new(db, a.clone(), ServerConfig::default()));
    let stop = Arc::new(AtomicBool::new(false));
    let rounds: i64 = if cfg!(debug_assertions) { 150 } else { 600 };

    // Warm the plan cache so readers ride it throughout.
    let edge_q = SpcQuery::builder(Arc::clone(&cat), "out_edges")
        .atom("edge", "e")
        .eq_param(("e", "src"), "n")
        .project(("e", "dst"))
        .build()
        .unwrap();
    let mut bind = BTreeMap::new();
    bind.insert("n".to_string(), Value::int(1));
    server.session().query(&edge_q, &bind).unwrap();

    let mut handles = Vec::new();
    // Writer 1: paired edge+audit rows in one atomic write — the
    // cross-relation invariant every snapshot must preserve.
    {
        let server = Arc::clone(&server);
        handles.push(std::thread::spawn(move || {
            for i in 0..rounds {
                server.bulk_update(|d| {
                    d.insert("edge", &[Value::int(i % 7), Value::int(i)])
                        .unwrap();
                    d.insert("audit", &[Value::int(i), Value::str(format!("n{i}"))])
                        .unwrap();
                });
            }
        }));
    }
    // Writer 2: label rows through the maintained path, its own shard.
    {
        let server = Arc::clone(&server);
        handles.push(std::thread::spawn(move || {
            for i in 0..rounds {
                server
                    .insert("label", &[Value::int(i % 5), Value::str(format!("t{i}"))])
                    .unwrap();
            }
        }));
    }
    // Readers: frozen vector clocks + the paired-row invariant.
    let mut readers = Vec::new();
    for _ in 0..2 {
        let server = Arc::clone(&server);
        let stop = Arc::clone(&stop);
        let (edge_q, bind) = (edge_q.clone(), bind.clone());
        readers.push(std::thread::spawn(move || {
            let mut session = server.session();
            let mut served = 0u64;
            // At least one pass: on a loaded two-core host the writers can
            // be done before this thread is first scheduled.
            loop {
                let snap = server.snapshot();
                let clock: Vec<u64> = (0..3).map(|i| snap.epoch_of(RelId(i))).collect();
                let (e, l, au) = (
                    snap.table(RelId(0)).len(),
                    snap.table(RelId(1)).len(),
                    snap.table(RelId(2)).len(),
                );
                assert_eq!(
                    e, au,
                    "edge/audit written atomically: every snapshot agrees"
                );
                std::thread::yield_now();
                // Nothing about the held snapshot moves.
                assert_eq!(snap.table(RelId(0)).len(), e);
                assert_eq!(snap.table(RelId(1)).len(), l);
                for (i, &frozen) in clock.iter().enumerate() {
                    assert_eq!(snap.epoch_of(RelId(i)), frozen);
                }
                assert!(snap.epoch() >= *clock.iter().max().unwrap());
                let resp = session.query(&edge_q, &bind).unwrap();
                assert!(resp.stats.cache_hit, "reader rides the cached plan");
                served += 1;
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            served
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        assert!(r.join().unwrap() > 0);
    }

    let end = server.snapshot();
    assert_eq!(end.table(RelId(0)).len(), rounds as usize);
    assert_eq!(end.table(RelId(1)).len(), rounds as usize);
    assert_eq!(end.table(RelId(2)).len(), rounds as usize);
    assert_eq!(
        server.cache_stats().misses,
        1,
        "one compile served everyone"
    );
}
