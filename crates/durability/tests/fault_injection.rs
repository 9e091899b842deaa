//! Fault-injection matrix for the durability layer, driven end-to-end
//! through [`MemLog`]'s crash model: torn tails, partial snapshots, a
//! crash at every step of a checkpoint, CRC corruption, lying fsyncs,
//! torn bulk loads, and sequence gaps — each asserting recovery lands on
//! a consistent committed prefix (or fails loudly when the log is damaged
//! in a way a crash cannot produce).

use bcq_core::prelude::*;
use bcq_durability::{
    checkpoint, frame::append_frame, recover, snapshot_name, LogStorage, MemLog, RecordBody,
    RecoverError, RecoveryReport, SyncPolicy, WalRecord, WalWriter,
};
use bcq_storage::{Database, Prepare, RowOp};
use std::sync::Arc;

fn catalog() -> Arc<Catalog> {
    Catalog::from_names(&[("r", &["a", "b"]), ("s", &["c"])]).unwrap()
}

/// A WAL-attached database over `log`, starting at sequence 1.
fn wired(log: &Arc<MemLog>, policy: SyncPolicy) -> (Database, Arc<WalWriter>) {
    let writer = Arc::new(WalWriter::new(log.clone() as Arc<_>, policy, 1));
    let mut db = Database::new(catalog());
    db.set_wal(Some(writer.clone()));
    (db, writer)
}

/// One relation's comparable state: its epoch and decoded rows.
type RelState = (u64, Vec<Vec<Value>>);

/// Comparable full state: global epoch, then per relation (epoch, rows).
fn state(db: &Database) -> (u64, Vec<RelState>) {
    let rels = (0..db.num_relations())
        .map(|i| {
            let rel = RelId(i);
            (db.epoch_of(rel), db.value_rows(rel).collect())
        })
        .collect();
    (db.epoch(), rels)
}

#[test]
fn torn_final_record_is_dropped_not_misreplayed() {
    // Two synced inserts, then one unsynced; every crash point inside the
    // unsynced record must recover to exactly the two-insert state.
    let full_scenario = |keep: usize| {
        let log = Arc::new(MemLog::new());
        let (mut db, _w) = wired(&log, SyncPolicy::Manual);
        db.insert("r", &[Value::int(1), Value::int(2)]).unwrap();
        db.insert("s", &[Value::int(3)]).unwrap();
        log.sync().unwrap();
        let oracle2 = state(&db);
        db.insert("r", &[Value::int(4), Value::int(5)]).unwrap();
        let oracle3 = state(&db);
        let unsynced = log.unsynced_bytes();
        log.crash(keep.min(unsynced));
        (log, oracle2, oracle3, unsynced)
    };
    let (_, _, _, unsynced) = full_scenario(usize::MAX);
    for keep in 0..=unsynced {
        let (log, oracle2, oracle3, _) = full_scenario(keep);
        let (recovered, report) = recover(&*log, catalog()).unwrap();
        if keep == unsynced {
            assert_eq!(state(&recovered), oracle3, "complete record replays");
            assert_eq!(report.last_seq, 3);
        } else {
            assert_eq!(state(&recovered), oracle2, "crash at {keep} bytes");
            assert_eq!(report.last_seq, 2);
            if keep > 0 {
                assert_eq!(report.torn_bytes, keep as u64, "crash at {keep} bytes");
            }
        }
    }
}

#[test]
fn crc_corruption_fails_loudly_with_the_offending_offset() {
    let log = Arc::new(MemLog::new());
    let (mut db, _w) = wired(&log, SyncPolicy::Always);
    db.insert("r", &[Value::int(1), Value::int(2)]).unwrap();
    db.insert("r", &[Value::int(3), Value::int(4)]).unwrap();
    // Flip a payload byte of the FIRST record on the relation stream: a
    // fully-present record that fails its CRC is bit rot, not a crash.
    log.corrupt_byte("rel-0", 10);
    match recover(&*log, catalog()) {
        Err(RecoverError::Corrupt { stream, offset }) => {
            assert_eq!(stream, "rel-0");
            assert_eq!(offset, 0, "first record's frame header offset");
        }
        other => panic!("expected loud corruption failure, got {other:?}"),
    }
}

/// Every stream's bytes and every blob name: what recovery must not touch
/// when it refuses.
fn stored(log: &MemLog) -> (Vec<(String, Vec<u8>)>, Vec<String>) {
    let mut streams: Vec<_> = log
        .streams()
        .unwrap()
        .into_iter()
        .map(|s| {
            let bytes = log.read(&s).unwrap();
            (s, bytes)
        })
        .collect();
    streams.sort();
    let mut blobs = log.list_blobs().unwrap();
    blobs.sort();
    (streams, blobs)
}

/// Bytes the log streams hold.
fn log_bytes(log: &MemLog) -> u64 {
    stored(log).0.iter().map(|(_, b)| b.len() as u64).sum()
}

#[test]
fn truncated_snapshot_falls_back_to_the_previous_one() {
    // A crash inside the second checkpoint tears its blob: the cut never
    // happened, so the first snapshot plus the log since it still hold
    // everything.
    let log = Arc::new(MemLog::new());
    let (mut db, w) = wired(&log, SyncPolicy::Always);
    db.insert("r", &[Value::str("early"), Value::int(1)])
        .unwrap();
    let (older, _) = checkpoint(&w, &db).unwrap();

    db.insert("r", &[Value::str("mid"), Value::int(2)]).unwrap();
    db.insert("s", &[Value::int(9)]).unwrap();
    let oracle = state(&db);
    // Log sync and blob write go through; the process dies in the sync
    // that would have made the blob durable, and 5 of its bytes land.
    log.fail_after(2);
    assert!(checkpoint(&w, &db).is_err());
    log.crash(5);
    let newer = snapshot_name(w.last_seq());
    assert_eq!(log.read_blob(&newer).unwrap().unwrap().len(), 5);

    let (recovered, report) = recover(&*log, catalog()).unwrap();
    assert_eq!(report.snapshot.as_deref(), Some(older.as_str()));
    assert_eq!(report.snapshots_skipped, 1);
    assert_eq!(report.replayed, 3, "the intern and both inserts since");
    assert_eq!(state(&recovered), oracle, "older snapshot + longer replay");
    // The torn blob was replayed past, so recovery deleted it.
    assert_eq!(log.list_blobs().unwrap(), vec![older.clone()]);

    // Once a checkpoint completes its cut there is one snapshot, and
    // losing it is a refusal, not a replay from genesis.
    let log = Arc::new(MemLog::new());
    let (mut db, w) = wired(&log, SyncPolicy::Always);
    db.insert("r", &[Value::str("early"), Value::int(1)])
        .unwrap();
    checkpoint(&w, &db).unwrap();
    db.insert("r", &[Value::str("mid"), Value::int(2)]).unwrap();
    let (newest, _) = checkpoint(&w, &db).unwrap();
    db.insert("s", &[Value::int(9)]).unwrap();
    assert_eq!(log.list_blobs().unwrap(), vec![newest.clone()]);
    log.truncate_blob(&newest, 5);
    let before = stored(&log);
    match recover(&*log, catalog()) {
        Err(RecoverError::SnapshotUnreadable { snapshot, last_seq }) => {
            assert_eq!(snapshot, newest);
            assert_eq!(last_seq, w.last_seq() - 1);
        }
        other => panic!("expected a refusal, got {other:?}"),
    }
    assert_eq!(stored(&log), before, "a refusal changes nothing");
}

#[test]
fn unreadable_snapshot_after_the_cut_is_refused_with_or_without_a_tail() {
    for past in [0, 2] {
        let log = Arc::new(MemLog::new());
        let (mut db, w) = wired(&log, SyncPolicy::Always);
        db.insert("r", &[Value::str("x"), Value::int(1)]).unwrap();
        db.insert("s", &[Value::int(2)]).unwrap();
        let (name, _) = checkpoint(&w, &db).unwrap();
        let covered = w.last_seq();
        for i in 0..past {
            db.insert("s", &[Value::int(10 + i)]).unwrap();
        }
        log.truncate_blob(&name, 20);
        let before = stored(&log);
        assert_eq!(log_bytes(&log) > 0, past > 0);
        match recover(&*log, catalog()) {
            Err(RecoverError::SnapshotUnreadable { snapshot, last_seq }) => {
                assert_eq!((snapshot, last_seq), (name, covered), "{past} past");
            }
            other => panic!("{past} past: expected a refusal, got {other:?}"),
        }
        assert_eq!(stored(&log), before, "{past} past: every byte in place");
    }
}

#[test]
fn recovery_after_a_checkpoint_reads_only_the_tail() {
    let log = Arc::new(MemLog::new());
    let (mut db, w) = wired(&log, SyncPolicy::Always);
    for i in 0..50 {
        db.insert("r", &[Value::int(i), Value::str(format!("v{i}"))])
            .unwrap();
    }
    db.bulk_loader(RelId(1))
        .push_rows(&(0..40).map(Value::int).collect::<Vec<_>>());
    db.ensure_index_cols(RelId(0), &[0], &[1]);
    let (name, _) = checkpoint(&w, &db).unwrap();
    assert_eq!(log_bytes(&log), 0, "the checkpoint cut every stream");

    let k = 3;
    let bytes_before = w.stats().bytes;
    for i in 0..k {
        db.insert("s", &[Value::int(100 + i)]).unwrap();
    }
    let tail = w.stats().bytes - bytes_before;
    let (recovered, report) = recover(&*log, catalog()).unwrap();
    assert_eq!(state(&recovered), state(&db));
    assert_eq!(report.snapshot, Some(name));
    assert_eq!(report.replayed, k as u64);
    assert_eq!(report.log_bytes, tail, "only the k records were read");
    assert_eq!(report.log_bytes, log_bytes(&log));
}

#[test]
fn a_crash_at_every_step_of_a_checkpoint_recovers_to_the_uncrashed_state() {
    // One checkpoint behind, writes on all three streams since, then a
    // second checkpoint whose mutating calls are: log sync, blob write,
    // blob sync, one truncate per stream, one delete of the old snapshot.
    let scenario = || {
        let log = Arc::new(MemLog::new());
        let (mut db, w) = wired(&log, SyncPolicy::Always);
        db.insert("r", &[Value::str("a"), Value::int(1)]).unwrap();
        db.insert("s", &[Value::int(2)]).unwrap();
        checkpoint(&w, &db).unwrap();
        db.insert("r", &[Value::str("b"), Value::int(3)]).unwrap();
        db.insert("s", &[Value::int(4)]).unwrap();
        db.ensure_index_cols(RelId(0), &[0], &[1]);
        assert_eq!(log.streams().unwrap().len(), 3);
        (log, db, w)
    };
    let steps = 3 + 3 + 1;
    for n in 0..=steps {
        // Where the blob write went through but its sync did not, the crash
        // can keep any prefix of it; everything else was already durable.
        let unsynced = {
            let (log, db, w) = scenario();
            log.fail_after(n);
            assert_eq!(checkpoint(&w, &db).is_err(), n < steps, "step {n}");
            log.unsynced_bytes()
        };
        assert_eq!(unsynced > 0, n == 2, "step {n}");
        let mut keeps = vec![0, unsynced / 2, unsynced];
        keeps.dedup();
        for keep in keeps {
            let (log, db, w) = scenario();
            log.fail_after(n);
            let _ = checkpoint(&w, &db);
            log.crash(keep);
            let at = format!("crash after {n} steps, {keep} blob bytes kept");
            let (recovered, report) = recover(&*log, catalog()).unwrap();
            assert_eq!(state(&recovered), state(&db), "{at}");
            assert_eq!(report.last_seq, w.last_seq(), "{at}");
            // The new snapshot is durable from the blob sync on (or when
            // the crash happened to keep all of it).
            let new_durable = n > 2 || (n == 2 && keep == unsynced);
            let newest = snapshot_name(w.last_seq());
            assert_eq!(
                report.snapshot.as_deref() == Some(&newest),
                new_durable,
                "{at}"
            );

            let (again, report2) = recover(&*log, catalog()).unwrap();
            assert_eq!(state(&again), state(&db), "{at}");
            assert_eq!(report2.truncated_streams, 0, "{at}");
            assert_eq!(log.list_blobs().unwrap().len(), 1, "{at}: one snapshot");
            if new_durable {
                assert_eq!((log_bytes(&log), report2.replayed), (0, 0), "{at}");
            }
        }
    }
}

#[test]
fn recovery_is_idempotent_and_restartable() {
    let log = Arc::new(MemLog::new());
    let (mut db, w) = wired(&log, SyncPolicy::Manual);
    db.insert("r", &[Value::str("x"), Value::int(1)]).unwrap();
    {
        let mut l = db.bulk_loader(RelId(1));
        l.push_rows(&[Value::int(10)]);
        l.push_rows(&[Value::int(20)]);
    }
    db.insert("r", &[Value::str("y"), Value::int(2)]).unwrap();
    log.sync().unwrap();
    db.insert("r", &[Value::str("z"), Value::int(3)]).unwrap();
    log.crash(3); // torn tail: the last insert is cut mid-record

    let (db1, report1) = recover(&*log, catalog()).unwrap();
    assert!(report1.torn_bytes > 0);
    // Recover again on the same storage: identical state, nothing torn or
    // discarded the second time (the first pass truncated the junk away).
    let (db2, report2) = recover(&*log, catalog()).unwrap();
    assert_eq!(state(&db2), state(&db1));
    assert_eq!(report2.last_seq, report1.last_seq);
    assert_eq!(report2.torn_bytes, 0);
    assert_eq!(report2.discarded, 0);
    assert_eq!(report2.truncated_streams, 0);

    // A writer restarted at last_seq + 1 continues the history cleanly.
    let w2 = Arc::new(WalWriter::new(
        log.clone() as Arc<_>,
        SyncPolicy::Always,
        report2.last_seq + 1,
    ));
    let mut db3 = db2.clone();
    db3.set_wal(Some(w2));
    db3.insert("s", &[Value::int(30)]).unwrap();
    let oracle = state(&db3);
    let (db4, _) = recover(&*log, catalog()).unwrap();
    assert_eq!(state(&db4), oracle);
    drop(w);
}

#[test]
fn lying_fsync_loses_acknowledged_writes_but_recovery_stays_sound() {
    let log = Arc::new(MemLog::new());
    log.set_fsync_lies(true);
    let (mut db, w) = wired(&log, SyncPolicy::Always);
    for i in 0..3 {
        db.insert("s", &[Value::int(i)]).unwrap();
    }
    assert_eq!(w.stats().fsyncs, 3, "the drive claimed three flushes");
    log.crash(0); // power loss: the volatile cache never hit the platter
    let (recovered, report) = recover(&*log, catalog()).unwrap();
    assert_eq!(recovered.epoch(), 0, "acknowledged writes are gone");
    assert_eq!(report.last_seq, 0);
    assert_eq!(report.replayed, 0);
}

#[test]
fn bulk_load_without_its_end_record_is_discarded_whole() {
    let scenario = || {
        let log = Arc::new(MemLog::new());
        let (mut db, _w) = wired(&log, SyncPolicy::Manual);
        db.insert("r", &[Value::int(1), Value::int(2)]).unwrap();
        log.sync().unwrap();
        let oracle_pre = state(&db);
        let mut l = db.bulk_loader(RelId(1));
        l.push_rows(&[Value::int(10)]);
        l.push_rows(&[Value::int(20)]);
        let before_end = log.unsynced_bytes();
        drop(l); // appends the BulkEnd record
        let end_bytes = log.unsynced_bytes() - before_end;
        let oracle_post = state(&db);
        (log, oracle_pre, oracle_post, before_end, end_bytes)
    };

    // Crash right before the end record: the whole load is torn away,
    // including its commit — the epoch vector rolls back to pre-bulk.
    let (log, oracle_pre, _, before_end, _) = scenario();
    log.crash(before_end);
    let (recovered, report) = recover(&*log, catalog()).unwrap();
    assert_eq!(state(&recovered), oracle_pre);
    assert_eq!(report.last_seq, 1, "rolled back to before BulkBegin");
    assert_eq!(
        report.discarded, 3,
        "begin + two one-row chunks (the end never landed)"
    );

    // Crash right after it: the load is complete and replays in full.
    let (log, _, oracle_post, before_end, end_bytes) = scenario();
    log.crash(before_end + end_bytes);
    let (recovered, report) = recover(&*log, catalog()).unwrap();
    assert_eq!(state(&recovered), oracle_post);
    assert_eq!(report.discarded, 0);
}

#[test]
fn delete_touches_only_its_shard_and_recovery_keeps_the_vector_clock() {
    // Regression guard: `Database::delete` must funnel through `shard_mut`
    // on exactly one shard — untouched relations keep their epoch *and*
    // their physical `Arc` (COW sharing with older snapshots) — and a
    // recovery snapshot taken across the delete must reproduce the vector
    // clock.
    let log = Arc::new(MemLog::new());
    let (mut db, w) = wired(&log, SyncPolicy::Always);
    db.insert("r", &[Value::int(1), Value::int(2)]).unwrap();
    db.insert("r", &[Value::int(3), Value::int(4)]).unwrap();
    db.insert("s", &[Value::int(9)]).unwrap();
    db.ensure_index_cols(RelId(0), &[0], &[1]);
    let pre = db.clone();
    let (r, s) = (RelId(0), RelId(1));
    let (r_epoch, s_epoch) = (db.epoch_of(r), db.epoch_of(s));

    assert!(db
        .delete("r", &[Value::int(1), Value::int(2)])
        .unwrap()
        .is_some());
    assert_eq!(db.epoch_of(r), r_epoch + 1, "deleted shard advances");
    assert_eq!(db.epoch_of(s), s_epoch, "untouched shard's epoch is still");
    assert!(
        Arc::ptr_eq(pre.shard(s), db.shard(s)),
        "untouched shard stays physically shared with the pre-delete clone"
    );
    assert!(
        !Arc::ptr_eq(pre.shard(r), db.shard(r)),
        "the deleted shard was copied on write"
    );
    assert_eq!(db.shard(r).num_indexes(), 1, "the delete kept the index");

    // Pure log replay across the delete carries the exact vector clock
    // (the log has never been checkpointed, so it holds everything), and
    // so does a checkpoint taken across it.
    let (from_log, report) = recover(&*log, catalog()).unwrap();
    assert_eq!(report.snapshot, None);
    assert_eq!(state(&from_log), state(&db));
    checkpoint(&w, &db).unwrap();
    let (from_snap, report) = recover(&*log, catalog()).unwrap();
    assert_eq!(report.snapshot, Some(snapshot_name(w.last_seq())));
    assert_eq!(report.replayed, 0);
    assert_eq!(state(&from_snap), state(&db));
}

#[test]
fn records_beyond_a_sequence_gap_are_discarded() {
    let log = Arc::new(MemLog::new());
    let (mut db, _w) = wired(&log, SyncPolicy::Always);
    db.insert("r", &[Value::int(1), Value::int(2)]).unwrap();
    db.insert("r", &[Value::int(3), Value::int(4)]).unwrap();
    let oracle = state(&db);
    // Hand-append a valid record whose sequence number skips ahead — the
    // shape a reordering disk leaves. It must not replay.
    let mut syms = SymbolTable::new();
    let rogue = WalRecord {
        seq: 9,
        body: RecordBody::Insert {
            commit: 9,
            rel: 0,
            cells: vec![
                syms.encode(&Value::int(7)).raw(),
                syms.encode(&Value::int(8)).raw(),
            ],
        },
    };
    let mut framed = Vec::new();
    append_frame(&mut framed, &rogue.encode());
    log.append("rel-0", &framed).unwrap();
    log.sync().unwrap();

    let (recovered, report) = recover(&*log, catalog()).unwrap();
    assert_eq!(state(&recovered), oracle);
    assert_eq!(report.last_seq, 2);
    assert_eq!(report.discarded, 1);
    assert_eq!(report.truncated_streams, 1, "the gap suffix is cut away");
    // And the cut is durable: a second recovery sees a clean log.
    let (_, report2) = recover(&*log, catalog()).unwrap();
    assert_eq!(report2.discarded, 0);
}

#[test]
fn bulk_chunk_of_the_wrong_width_is_a_replay_error_not_a_panic() {
    // A well-framed, CRC-valid chunk whose cell count is a multiple of its
    // row count but not `rows × arity`: `r` has arity 2, the chunk claims
    // 2 rows in 6 cells. Recovery must refuse it before it reaches the
    // table's arity assertion.
    let log = Arc::new(MemLog::new());
    let mut syms = SymbolTable::new();
    let cell = syms.encode(&Value::int(7)).raw();
    let bodies = [
        RecordBody::BulkBegin { commit: 1, rel: 0 },
        RecordBody::BulkChunk {
            rel: 0,
            rows: 2,
            cells: vec![cell; 6],
        },
        RecordBody::BulkEnd { rel: 0 },
    ];
    let mut framed = Vec::new();
    for (i, body) in bodies.into_iter().enumerate() {
        let seq = i as u64 + 1;
        append_frame(&mut framed, &WalRecord { seq, body }.encode());
    }
    log.append("rel-0", &framed).unwrap();
    log.sync().unwrap();

    match recover(&*log, catalog()) {
        Err(RecoverError::Replay(msg)) => {
            for part in ["seq 2", "relation 0", "width 2", "found 6 cells"] {
                assert!(msg.contains(part), "`{part}` missing from: {msg}");
            }
        }
        other => panic!("expected a replay error, got {other:?}"),
    }
}

/// [`state`] plus every index: per relation, in registration order, its
/// columns, tightest bound and key → (rows, witnesses) in key order.
type IndexState = (
    Vec<usize>,
    Vec<usize>,
    usize,
    Vec<(Vec<Cell>, Vec<u32>, Vec<u32>)>,
);
fn indexed_state(db: &Database) -> ((u64, Vec<RelState>), Vec<Vec<IndexState>>) {
    let indexes = (0..db.num_relations())
        .map(|i| {
            let shard = db.shard(RelId(i));
            let specs = shard.index_specs();
            specs
                .map(|(x, y)| {
                    let idx = shard.index(x, y).unwrap();
                    let mut keys: Vec<_> = idx
                        .entries()
                        .map(|(k, p)| (k.to_vec(), p.all().to_vec(), p.witnesses().to_vec()))
                        .collect();
                    keys.sort();
                    (x.to_vec(), y.to_vec(), idx.max_witnesses(), keys)
                })
                .collect()
        })
        .collect();
    (state(db), indexes)
}

#[test]
fn index_record_runs_replay_to_the_one_at_a_time_state() {
    // No snapshot. The live side builds its indices one `ensure_index_cols`
    // at a time; replay meets the same records as runs — one spanning both
    // relations, a lone record between row writes, a second run, and an
    // unsynced run that the crash cuts anywhere — and builds each run as
    // one batch. `r` is large enough for the sorted, threaded build.
    let (r, s) = (RelId(0), RelId(1));
    let tail: [(RelId, &[usize], &[usize]); 3] =
        [(r, &[1], &[0, 1]), (s, &[0], &[0]), (r, &[0, 1], &[1])];
    // The log, the live state after each tail record (none, one, ...), the
    // unsynced bytes up to the end of each, and the last synced sequence.
    let scenario = || {
        let log = Arc::new(MemLog::new());
        let (mut db, w) = wired(&log, SyncPolicy::Manual);
        let rows: Vec<Value> = (0..(1 << 13) + 100)
            .flat_map(|i| [Value::int(i % 300), Value::int(i % 7)])
            .collect();
        db.bulk_loader(r).push_rows(&rows);
        let rows: Vec<Value> = (0..40).map(|i| Value::int(i % 5)).collect();
        db.bulk_loader(s).push_rows(&rows);
        db.ensure_index_cols(r, &[0], &[1]);
        db.ensure_index_cols(s, &[], &[0]);
        db.ensure_index_cols(r, &[], &[1]);
        db.ensure_index_cols(r, &[1], &[0]);
        db.insert("r", &[Value::int(3), Value::int(4)]).unwrap();
        db.ensure_index_cols(r, &[0, 1], &[0]);
        assert!(db.delete("s", &[Value::int(2)]).unwrap().is_some());
        db.ensure_index_cols(r, &[0], &[0, 1]);
        db.ensure_index_cols(r, &[], &[0]);
        log.sync().unwrap();
        let synced_seq = w.last_seq();
        let mut oracles = vec![indexed_state(&db)];
        let mut ends = vec![0];
        for (rel, x, y) in tail {
            db.ensure_index_cols(rel, x, y);
            oracles.push(indexed_state(&db));
            ends.push(log.unsynced_bytes());
        }
        (log, oracles, ends, synced_seq)
    };
    let (_, _, ends, _) = scenario();
    let mut crash_points: Vec<usize> = ends
        .windows(2)
        .flat_map(|w| [w[0], w[0] + 1, (w[0] + w[1]) / 2, w[1] - 1])
        .collect();
    crash_points.push(ends[3]);
    for keep in crash_points {
        let (log, oracles, ends, synced_seq) = scenario();
        log.crash(keep);
        let held = log_bytes(&log);
        let (recovered, report) = recover(&*log, catalog()).unwrap();
        let whole = ends.iter().rposition(|&end| end <= keep).unwrap();
        assert_eq!(indexed_state(&recovered), oracles[whole], "crash at {keep}");
        let torn = (keep - ends[whole]) as u64;
        let want = RecoveryReport {
            replayed: synced_seq + whole as u64,
            last_seq: synced_seq + whole as u64,
            torn_bytes: torn,
            log_bytes: held - torn,
            truncated_streams: usize::from(torn > 0),
            ..RecoveryReport::default()
        };
        assert_eq!(report, want, "crash at {keep}");
        // And the cut log recovers to the same place again.
        let (again, report) = recover(&*log, catalog()).unwrap();
        assert_eq!(indexed_state(&again), oracles[whole]);
        assert_eq!((report.last_seq, report.torn_bytes), (want.last_seq, 0));
    }
}

/// Hex of the bytes `stream` holds.
fn hex(log: &MemLog, stream: &str) -> String {
    let bytes = log.read(stream).unwrap();
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn surviving_records_are_byte_identical_to_the_pre_retirement_format() {
    // Stream contents (frames included) captured at the commit before the
    // index-dropping record kinds were retired, from this exact sequence:
    // an index build, a served insert and delete on `r` (tags 9, 4, 6),
    // then a one-chunk bulk load of `s` (tags 7, 11, 10) with a string and
    // a wide-int intern (tags 1, 2).
    const META: &str = "12000000905e0d6a02000000000000000100000000010000006b\
        1500000053f6bb7e06000000000000000200000000ffffffffffffff7f";
    const REL_0: &str = "250000008a7f31b2010000000000000009010000000000000000\
        0000000100000000000000010000000100000029000000686227b903000000000000\
        0004020000000000000000000000020000000200000000000000390000000000000029\
        00000080bfedd0040000000000000006030000000000000000000000020000000200\
        0000000000003900000000000000";
    const REL_1: &str = "15000000ec18ee0a050000000000000007040000000000000001\
        00000025000000e4a80ceb07000000000000000b0100000002000000020000005100\
        00000000000004000000000000000d0000002bea7ba708000000000000000a01000000";
    let row = [Value::str("k"), Value::int(7)];
    // The row writes once in place and once prepared off the commit lock:
    // both must land the same bytes.
    for prepared in [false, true] {
        let log = Arc::new(MemLog::new());
        let (mut db, _w) = wired(&log, SyncPolicy::Always);
        db.ensure_index_cols(RelId(0), &[0], &[1]);
        db.insert("r", &row).unwrap();
        if prepared {
            match db.prepare(RowOp::Delete, "r", &row).unwrap() {
                Prepare::Ready(p) => db.commit_prepared(p),
                other => panic!("expected a prepared delete, got {other:?}"),
            };
        } else {
            assert!(db.delete("r", &row).unwrap().is_some());
        }
        db.bulk_loader(RelId(1))
            .push_rows(&[Value::int(10), Value::int(i64::MAX)]);
        for (stream, want) in [("meta", META), ("rel-0", REL_0), ("rel-1", REL_1)] {
            assert_eq!(hex(&log, stream), want, "{stream}, prepared = {prepared}");
        }
    }
}
