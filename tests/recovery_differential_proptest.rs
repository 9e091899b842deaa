//! Crash-point differential proof of the durability layer: random
//! interleavings of row inserts/deletes, bulk loads — one-row chunks
//! and multi-row columnar chunks, so cuts land inside encoded `BulkChunk`
//! records too — and checkpoints, which snapshot the state and cut the
//! log behind it, are applied to a WAL-attached database, the log is cut
//! at a
//! **random byte offset** — including mid-record and mid-bulk — and
//! recovery must land on exactly the state the never-crashed oracle had at
//! some commit boundary at or before the cut: same rows, same epoch
//! vector, same index postings (down to rids and witness lists, since
//! replay reproduces every operation in identical order through the
//! public `Database` API). Recovering twice must equal recovering once.
//!
//! A second layer drives the same interleavings end to end through the
//! serving tier ([`Server::open`] with a registered view): after the
//! crash, the reopened view must equal a fresh recompute over the
//! recovered snapshot.
//!
//! Runs 256 interleavings per schema by default (the shim's deterministic
//! per-test seeding keeps the normal CI job reproducible);
//! `PROPTEST_CASES=512` is CI's scheduled deep-fuzz gate.

use bounded_cq::durability::{checkpoint, recover, LogStorage, MemLog, SyncPolicy, WalWriter};
use bounded_cq::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

// --- comparable state dumps ----------------------------------------------

/// One relation's full recovered-comparable state. Index postings are
/// compared exactly (sorted by key): replay re-runs every mutation in the
/// original order through the same code paths, so rids, posting order and
/// witness promotion must all reproduce bit-for-bit.
#[derive(Debug, PartialEq)]
struct RelDump {
    epoch: u64,
    rows: Vec<Vec<Value>>,
    #[allow(clippy::type_complexity)]
    indexes: Vec<(Vec<usize>, Vec<usize>, Vec<(Vec<u64>, Vec<u32>, Vec<u32>)>)>,
}

fn dump(db: &Database) -> (u64, Vec<RelDump>) {
    let rels = (0..db.num_relations())
        .map(|i| {
            let rel = RelId(i);
            let shard = db.shard(rel);
            let indexes = shard
                .index_specs()
                .map(|(x, y)| {
                    let idx = shard.index(x, y).expect("spec lists a built index");
                    let mut entries: Vec<(Vec<u64>, Vec<u32>, Vec<u32>)> = idx
                        .entries()
                        .map(|(k, p)| {
                            (
                                k.iter().map(|c| c.raw()).collect(),
                                p.all().to_vec(),
                                p.witnesses().to_vec(),
                            )
                        })
                        .collect();
                    entries.sort();
                    (x.to_vec(), y.to_vec(), entries)
                })
                .collect();
            RelDump {
                epoch: db.epoch_of(rel),
                rows: db.value_rows(rel).collect(),
                indexes,
            }
        })
        .collect();
    (db.epoch(), rels)
}

// --- schemas (TFACC-shaped join, MOT-shaped wide relation) ---------------

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

fn mot_catalog() -> Arc<Catalog> {
    Catalog::from_names(&[("mot_test", &["test_id", "vehicle_id", "year", "result"])]).unwrap()
}

fn mot_access() -> AccessSchema {
    let mut a = AccessSchema::new(mot_catalog());
    a.add(
        "mot_test",
        &["vehicle_id"],
        &["test_id", "year", "result"],
        16,
    )
    .unwrap();
    a.add("mot_test", &[], &["vehicle_id"], 8).unwrap();
    a
}

// --- the storage-level crash harness -------------------------------------

/// One generated mutation. `vals` is reinterpreted per schema; strings are
/// mixed in so symbol-interning replay is exercised alongside small ints.
type Op = (i64, bool, [i64; 3]);

/// Op kinds [`crash_and_check`] knows: 0–1 insert, 2–3 delete, 4 a bulk
/// load of one-row chunks, 5 a bulk load of one three-row columnar chunk,
/// 6 a checkpoint (snapshot, then the log cut behind it).
/// Its `match` is exhaustive over exactly this range — no modulus — so
/// the generator and the arms cannot drift apart.
const STORAGE_OP_KINDS: i64 = 7;

/// The op vectors both storage-level properties (and the coverage test)
/// draw from; `v0` / `v1` bound the first two row values.
fn storage_ops(
    v0: std::ops::Range<i64>,
    v1: std::ops::Range<i64>,
) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (0..STORAGE_OP_KINDS, any::<bool>(), [v0, v1, 0..3i64]),
        1..12,
    )
}

fn tfacc_row(into_accident: bool, vals: &[i64; 3]) -> (&'static str, Vec<Value>) {
    if into_accident {
        (
            "accident",
            vec![
                Value::int(vals[0]),
                Value::int(vals[1]),
                Value::str(["low", "high", "fatal"][(vals[2].rem_euclid(3)) as usize]),
            ],
        )
    } else {
        ("vehicle", vec![Value::int(vals[0]), Value::int(vals[1])])
    }
}

fn mot_row(_into: bool, vals: &[i64; 3]) -> (&'static str, Vec<Value>) {
    (
        "mot_test",
        vec![
            Value::int(vals[0]),
            Value::int(vals[1]),
            Value::int(vals[2].rem_euclid(3)),
            Value::str(["pass", "fail"][(vals[0].rem_euclid(2)) as usize]),
        ],
    )
}

/// Runs `ops` against a WAL-attached database (recording the oracle state
/// at every commit boundary), cuts the log at `cut_seed % (bytes + 1)`,
/// recovers, and asserts the recovered state equals the oracle boundary
/// recovery reports — then recovers again and asserts idempotence.
/// Returns how many ops ran per kind: insert, delete, row load, chunk
/// load, checkpoint.
fn crash_and_check(
    catalog: Arc<Catalog>,
    access: &AccessSchema,
    ops: &[Op],
    row_of: fn(bool, &[i64; 3]) -> (&'static str, Vec<Value>),
    cut_seed: u32,
) -> [usize; 5] {
    let log = Arc::new(MemLog::new());
    let writer = Arc::new(WalWriter::new(
        Arc::clone(&log) as Arc<dyn LogStorage>,
        SyncPolicy::Manual,
        1,
    ));
    let mut db = Database::new(Arc::clone(&catalog));
    db.set_wal(Some(writer.clone()));

    // Every commit boundary the oracle passes through: (last_seq, state).
    // Index builds are logged one record each, so each gets a boundary.
    let mut boundaries = vec![(0u64, dump(&db))];
    for c in access.constraints() {
        db.ensure_index(c);
        boundaries.push((writer.last_seq(), dump(&db)));
    }
    let mut ran = [0usize; 5];
    for (kind, flip, vals) in ops {
        let (rel_name, row) = row_of(*flip, vals);
        match kind {
            0 | 1 => {
                ran[0] += 1;
                db.insert(rel_name, &row).unwrap();
            }
            2 | 3 => {
                ran[1] += 1;
                db.delete(rel_name, &row).unwrap();
            }
            4 => {
                // Bulk load of two one-row chunks (BulkBegin .. chunks ..
                // BulkEnd bracket); clears the relation's indices.
                ran[2] += 1;
                let rel = db.catalog().require_rel(rel_name).unwrap();
                let (_, row2) = row_of(!*flip, vals);
                let mut l = db.bulk_loader(rel);
                l.push_rows(&row);
                if row2.len() == row.len() {
                    l.push_rows(&row2);
                }
            }
            5 => {
                ran[3] += 1;
                // Chunked columnar bulk load: three rows land in a single
                // WAL BulkChunk record, so the cut can fall inside the
                // encoded chunk and replay must still intern/append
                // exactly as the live loader did.
                let rel = db.catalog().require_rel(rel_name).unwrap();
                let mut cols: Vec<Vec<Value>> = vec![Vec::new(); row.len()];
                for delta in 0..3 {
                    let mut v = *vals;
                    v[0] += delta;
                    let (_, r) = row_of(*flip, &v);
                    for (col, val) in cols.iter_mut().zip(r) {
                        col.push(val);
                    }
                }
                let mut l = db.bulk_loader(rel);
                l.push_chunk_columns(&cols);
            }
            6 => {
                // Everything so far becomes durable in the snapshot and the
                // log is cut to 0: the crash below can only land in the
                // records written after it.
                ran[4] += 1;
                checkpoint(&writer, &db).unwrap();
            }
            _ => unreachable!("storage_ops() generates 0..{STORAGE_OP_KINDS}, got {kind}"),
        }
        boundaries.push((writer.last_seq(), dump(&db)));
    }

    // Crash at a random byte offset — nothing past the last checkpoint was
    // ever synced, so the cut can land anywhere in that tail: mid-record,
    // mid-bulk, between streams' records.
    let total = log.unsynced_bytes();
    log.crash(cut_seed as usize % (total + 1));

    let (recovered, report) = recover(&*log, Arc::clone(&catalog)).unwrap();
    // The recovered state must be the oracle's state at the last commit
    // boundary the report says was applied. (Recovery may stop mid-op on a
    // non-commit record — a symbol intern, a bulk chunk — but the *state* is
    // then exactly the previous boundary's.)
    let (boundary_seq, oracle) = boundaries
        .iter()
        .rev()
        .find(|(seq, _)| *seq <= report.last_seq)
        .expect("boundary 0 always qualifies");
    assert_eq!(
        &dump(&recovered),
        oracle,
        "cut at {} of {} bytes, recovered to seq {} (boundary {})",
        cut_seed as usize % (total + 1),
        total,
        report.last_seq,
        boundary_seq
    );

    // Idempotence: recovery truncated the junk away; a second recovery
    // sees a clean log and reproduces the same state.
    let (again, report2) = recover(&*log, catalog).unwrap();
    assert_eq!(dump(&again), dump(&recovered));
    assert_eq!(report2.last_seq, report.last_seq);
    assert_eq!(report2.torn_bytes, 0);
    assert_eq!(report2.discarded, 0);
    // A checkpoint leaves exactly one snapshot behind, and recovery keeps
    // at most that one.
    let snapshots = log.list_blobs().unwrap().len();
    assert_eq!(
        snapshots,
        usize::from(ran[4] > 0),
        "snapshots left: {snapshots}"
    );
    ran
}

proptest! {
    // 256 crash points per schema by default; PROPTEST_CASES overrides.
    #![proptest_config(ProptestConfig::default())]

    #[test]
    fn tfacc_shaped_crash_points_recover_to_an_oracle_boundary(
        ops in storage_ops(0..4, 0..3),
        cut_seed in any::<u32>(),
    ) {
        crash_and_check(tfacc_catalog(), &tfacc_access(), &ops, tfacc_row, cut_seed);
    }

    #[test]
    fn mot_shaped_crash_points_recover_to_an_oracle_boundary(
        ops in storage_ops(0..6, 0..4),
        cut_seed in any::<u32>(),
    ) {
        crash_and_check(mot_catalog(), &mot_access(), &ops, mot_row, cut_seed);
    }
}

/// The columnar-chunk arm went unexercised for as long as the generator's
/// range and the match's modulus disagreed; this pins, for a fixed seed,
/// that the shared generator reaches every arm.
#[test]
fn every_storage_op_kind_runs_for_a_fixed_seed() {
    let mut rng = proptest::test_runner::TestRng::deterministic("storage-op-coverage");
    let mut ran = [0usize; 5];
    for cut_seed in 0..32 {
        let ops = storage_ops(0..4, 0..3).generate(&mut rng);
        let n = crash_and_check(tfacc_catalog(), &tfacc_access(), &ops, tfacc_row, cut_seed);
        ran.iter_mut().zip(n).for_each(|(total, n)| *total += n);
    }
    assert!(
        ran.iter().all(|&n| n > 0),
        "insert / delete / row load / chunk load / checkpoint ran {ran:?}"
    );
}

// --- the serving-level crash harness -------------------------------------

fn reevaluate(db: &Database, q: &SpcQuery, a: &AccessSchema) -> ResultSet {
    let plan = qplan(q, a).unwrap();
    eval_dq(db, &plan, a).unwrap().result
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The same interleavings end to end through [`Server::open`]: writes
    /// go through the served row-write path (plus occasional bulk
    /// loads and checkpoints), the log is cut at a random offset past the
    /// setup prefix and the last checkpoint,
    /// and the reopened server's registered view must equal a fresh
    /// recompute over whatever prefix survived. When the cut lands exactly
    /// on a served commit boundary, the full state must match the oracle's.
    #[test]
    fn served_crash_points_keep_views_consistent_with_recompute(
        ops in prop::collection::vec((0..10i64, any::<bool>(), [0..4i64, 0..3i64, 0..3i64]), 1..8),
        cut_seed in any::<u32>(),
    ) {
        let a = tfacc_access();
        let q = tfacc_query();
        let open = |log: &Arc<MemLog>| {
            Server::open(
                Arc::clone(log) as Arc<dyn LogStorage>,
                a.clone(),
                ServerConfig::default(),
                DurabilityConfig { policy: SyncPolicy::Manual },
                std::slice::from_ref(&q),
            )
            .unwrap()
        };
        let log = Arc::new(MemLog::new());
        let (server, _, ids) = open(&log);
        let server = Arc::new(server);
        let view = ids[0];
        // The setup prefix (index builds) is multi-record; cuts inside it
        // are covered by the storage-level harness above. Here the cut
        // lands in the served-write suffix.
        let setup_bytes = log.unsynced_bytes();

        // Oracle states keyed by WAL position after each serving-path op.
        let mut boundaries: Vec<(u64, (u64, Vec<RelDump>))> = Vec::new();
        let mut record = |server: &Server| {
            let m = server.metrics_snapshot();
            boundaries.push((m.wal.last_seq, dump(&server.snapshot())));
        };
        record(&server);
        for (kind, into_accident, vals) in &ops {
            let (rel_name, row) = tfacc_row(*into_accident, vals);
            // Exhaustive over the generator's `0..10`, no modulus: see
            // `STORAGE_OP_KINDS`.
            match kind {
                0..=3 => {
                    server.insert(rel_name, &row).unwrap();
                }
                4 | 5 => {
                    server.delete(rel_name, &row).unwrap();
                }
                6 | 7 => {
                    server.bulk_update(|db| {
                        let rel = db.catalog().require_rel(rel_name).unwrap();
                        db.bulk_loader(rel).push_rows(&row);
                    });
                }
                8 => {
                    // The serving-tier chunked fast path: a two-row
                    // columnar chunk (one WAL BulkChunk record).
                    let mut v = *vals;
                    v[0] += 1;
                    let (_, row2) = tfacc_row(*into_accident, &v);
                    let cols: Vec<Vec<Value>> = row
                        .iter()
                        .zip(&row2)
                        .map(|(a, b)| vec![a.clone(), b.clone()])
                        .collect();
                    server
                        .bulk_load(rel_name, |l| l.push_chunk_columns(&cols))
                        .unwrap();
                }
                9 => {
                    // Snapshot and cut: the crash below can only land in
                    // the writes after it.
                    server.checkpoint().unwrap();
                }
                _ => unreachable!("the strategy above generates 0..10, got {kind}"),
            }
            record(&server);
        }
        prop_assert_eq!(
            &server.view_result(view).unwrap(),
            &reevaluate(&server.snapshot(), &q, &a),
            "live view diverged before any crash"
        );
        drop(server);

        let total = log.unsynced_bytes();
        let cut = setup_bytes + cut_seed as usize % (total - setup_bytes + 1);
        log.crash(cut);

        let (server2, report, ids2) = open(&log);
        let server2 = Arc::new(server2);
        let snap = server2.snapshot();
        // The reopened view equals a fresh recompute over the recovered
        // prefix, no matter where the cut fell.
        prop_assert_eq!(
            &server2.view_result(ids2[0]).unwrap(),
            &reevaluate(&snap, &q, &a),
            "recovered view != recompute (cut at {} of {} bytes)", cut, total
        );
        // On an exact boundary landing, the whole state must match.
        if let Some((_, oracle)) = boundaries.iter().rev().find(|(s, _)| *s == report.last_seq) {
            prop_assert_eq!(&dump(&snap), oracle);
        }
        // And the recovered server keeps serving writes and view reads.
        server2.insert("vehicle", &[Value::int(0), Value::int(1)]).unwrap();
        prop_assert_eq!(
            &server2.view_result(ids2[0]).unwrap(),
            &reevaluate(&server2.snapshot(), &q, &a)
        );
    }
}

// --- concurrent writers under group commit --------------------------------

/// Opens a served TFACC store on `log` with the given fsync policy.
fn open_served(log: &Arc<MemLog>, policy: SyncPolicy) -> Arc<Server> {
    let (server, _, _) = Server::open(
        Arc::clone(log) as Arc<dyn LogStorage>,
        tfacc_access(),
        ServerConfig::default(),
        DurabilityConfig { policy },
        &[],
    )
    .unwrap();
    Arc::new(server)
}

/// Writer `w`'s deterministic insert sequence (writer 0 owns `accident`,
/// writer 1 owns `vehicle` — disjoint relations, so the threaded run's
/// per-relation row order is each writer's program order).
fn writer_rows(w: usize, n: usize) -> (&'static str, Vec<Vec<Value>>) {
    let rel = ["accident", "vehicle"][w];
    let rows = (0..n)
        .map(|i| tfacc_row(w == 0, &[i as i64, (i % 3) as i64, (i % 3) as i64]).1)
        .collect();
    (rel, rows)
}

fn run_concurrent_writers(server: &Arc<Server>, counts: &[usize]) {
    std::thread::scope(|scope| {
        for (w, &n) in counts.iter().enumerate() {
            let server = Arc::clone(server);
            scope.spawn(move || {
                let (rel, rows) = writer_rows(w, n);
                for row in &rows {
                    server.insert(rel, row).unwrap();
                }
            });
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Group commit, fsync-before-ack: with [`SyncPolicy::Always`] a
    /// writer only unblocks once a (possibly shared) fsync covers its
    /// record, so after concurrent writers all return, **nothing** sits
    /// unsynced — and a crash that discards the entire unsynced tail
    /// loses not a single acknowledged write.
    #[test]
    fn concurrent_acked_writes_survive_a_crash(
        counts in prop::collection::vec(1usize..12, 2..=2),
    ) {
        let log = Arc::new(MemLog::new());
        let server = open_served(&log, SyncPolicy::Always);
        run_concurrent_writers(&server, &counts);

        let expect = dump(&server.snapshot());
        let stats = server.wal_stats().unwrap();
        let total = (counts[0] + counts[1]) as u64;
        prop_assert_eq!(
            stats.group_records, total,
            "every acknowledged write was covered by a group flush"
        );
        prop_assert!(stats.group_batches <= stats.group_records);
        prop_assert_eq!(
            log.unsynced_bytes(), 0,
            "an acknowledged write was left unsynced (ack before fsync)"
        );
        drop(server);

        log.crash(0); // discard the (empty) unsynced tail
        let server2 = open_served(&log, SyncPolicy::Always);
        prop_assert_eq!(dump(&server2.snapshot()), expect);
    }

    /// Group commit, torn-tail discard: with a lazy fsync policy the
    /// whole write suffix sits unsynced; a crash cutting it at an
    /// arbitrary byte — mid-record, mid-batch — must recover each
    /// relation to a **prefix** of its writer's program order (never a
    /// torn or reordered row), and a second recovery must be clean.
    #[test]
    fn concurrent_unsynced_tail_recovers_to_a_consistent_prefix(
        counts in prop::collection::vec(1usize..10, 2..=2),
        keep in any::<u32>(),
    ) {
        let log = Arc::new(MemLog::new());
        // Effectively "never fsync": the entire served suffix is one
        // unacknowledged torn batch. (`Server::open` itself ends with a
        // durable barrier, so the setup prefix is already synced and the
        // cut below always lands in the write suffix.)
        let server = open_served(&log, SyncPolicy::EveryOps(100_000));
        run_concurrent_writers(&server, &counts);
        drop(server);

        let tail = log.unsynced_bytes();
        prop_assert!(tail > 0, "writes must have produced an unsynced tail");
        log.crash(keep as usize % tail); // strictly torn: ≥ 1 byte lost

        let server2 = open_served(&log, SyncPolicy::EveryOps(100_000));
        let snap = server2.snapshot();
        for (w, &n) in counts.iter().enumerate() {
            let (rel_name, rows) = writer_rows(w, n);
            let rel = snap.catalog().require_rel(rel_name).unwrap();
            let got: Vec<Vec<Value>> = snap.value_rows(rel).collect();
            prop_assert!(
                got.len() <= rows.len(),
                "recovery invented rows for {}", rel_name
            );
            prop_assert_eq!(
                &got[..], &rows[..got.len()],
                "recovered {} is not a program-order prefix", rel_name
            );
        }
        let expect = dump(&snap);
        drop(snap);
        drop(server2);

        // Idempotence: recovery truncated the torn tail; reopening sees a
        // clean log and reproduces the same state.
        let server3 = open_served(&log, SyncPolicy::EveryOps(100_000));
        prop_assert_eq!(dump(&server3.snapshot()), expect);
    }
}
