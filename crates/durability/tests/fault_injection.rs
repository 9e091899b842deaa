//! Fault-injection matrix for the durability layer, driven end-to-end
//! through [`MemLog`]'s crash model: torn tails, partial snapshots, a
//! crash at every step of a checkpoint, CRC corruption, lying fsyncs,
//! torn bulk loads, and out-of-order sequence numbers — each asserting recovery lands on
//! a consistent committed prefix (or fails loudly when the log is damaged
//! in a way a crash cannot produce).

use bcq_core::prelude::*;
use bcq_durability::{
    checkpoint, crc32, decode_frames,
    frame::append_frame,
    record::{decode_op, encode_op_into},
    recover, snapshot_name, write_snapshot, DecodeScratch, LogStorage, MemLog, RecoverError,
    RecoveryReport, SyncPolicy, WalWriter,
};
use bcq_storage::{Database, Prepare, RowOp, WalOp};
use std::io::Read;
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
    // Flip a payload byte of the FIRST record in the log: a fully-present
    // record that fails its CRC is bit rot, not a crash.
    log.corrupt_byte(10);
    match recover(&*log, catalog()) {
        Err(RecoverError::Corrupt { offset }) => {
            assert_eq!(offset, 0, "first record's frame header offset");
        }
        other => panic!("expected loud corruption failure, got {other:?}"),
    }
}

/// The log's bytes and every blob name: what recovery must not touch
/// when it refuses.
fn stored(log: &MemLog) -> (Vec<u8>, Vec<String>) {
    let mut blobs = log.list_blobs().unwrap();
    blobs.sort();
    (log.read().unwrap(), blobs)
}

/// Bytes the log holds.
fn log_bytes(log: &MemLog) -> u64 {
    stored(log).0.len() as u64
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
    assert_eq!(log.read_blob(&newer).unwrap().unwrap().1, 5);

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

/// One relation of a hand-framed snapshot: its epoch, the row count and
/// width it states, its cells and its `(x, y)` index specs.
#[derive(Clone)]
struct SnapRel {
    epoch: u64,
    rows: u64,
    arity: u32,
    cells: Vec<Cell>,
    indexes: Vec<(Vec<u32>, Vec<u32>)>,
}

/// A CRC-valid snapshot blob with no wide ints, framed by hand in the
/// codec's layout: magic, payload length and CRC, then the payload.
fn framed_snapshot(commit: u64, last_seq: u64, strings: &[&str], rels: &[SnapRel]) -> Vec<u8> {
    let u32_of = |n: usize| u32::try_from(n).unwrap().to_le_bytes();
    let mut p = Vec::new();
    p.extend(commit.to_le_bytes());
    p.extend(last_seq.to_le_bytes());
    p.extend(u32_of(strings.len()));
    for text in strings {
        p.extend(u32_of(text.len()));
        p.extend(text.as_bytes());
    }
    p.extend(u32_of(0));
    p.extend(u32_of(rels.len()));
    for rel in rels {
        p.extend(rel.epoch.to_le_bytes());
        p.extend(rel.rows.to_le_bytes());
        p.extend(rel.arity.to_le_bytes());
        for cell in &rel.cells {
            p.extend(cell.raw().to_le_bytes());
        }
        p.extend(u32_of(rel.indexes.len()));
        for (x, y) in &rel.indexes {
            for cols in [x, y] {
                p.extend(u32_of(cols.len()));
                for col in cols {
                    p.extend(col.to_le_bytes());
                }
            }
        }
    }
    let mut blob = b"BCQSNAP1".to_vec();
    blob.extend(u32_of(p.len()));
    blob.extend(crc32(&p).to_le_bytes());
    blob.extend(p);
    blob
}

#[test]
fn a_tampered_snapshot_is_refused_and_recovery_falls_back_to_the_log() {
    // An intern, two inserts and an index build, synced: the log covers
    // every record a snapshot of the end state would.
    let history = || {
        let log = Arc::new(MemLog::new());
        let (mut db, w) = wired(&log, SyncPolicy::Always);
        db.insert("r", &[Value::str("x"), Value::int(1)]).unwrap();
        db.insert("s", &[Value::int(2)]).unwrap();
        db.ensure_indexes_cols(&[(RelId(0), &[0], &[1])]);
        (log, db, w.last_seq())
    };
    let put = |log: &MemLog, name: &str, blob: &[u8]| {
        log.write_blob(name, &mut |sink| sink.write_all(blob))
            .unwrap();
        log.sync().unwrap();
    };
    let (log, db, covered) = history();
    let oracle = state(&db);
    let name = snapshot_name(covered);
    let int = |i| Cell::from_small_int(i).unwrap();
    let genuine = [
        SnapRel {
            epoch: db.epoch_of(RelId(0)),
            rows: 1,
            arity: 2,
            cells: vec![Cell::from_sym(Sym(0)), int(1)],
            indexes: vec![(vec![0], vec![1])],
        },
        SnapRel {
            epoch: db.epoch_of(RelId(1)),
            rows: 1,
            arity: 1,
            cells: vec![int(2)],
            indexes: vec![],
        },
    ];
    let frame = |rels: &[SnapRel]| framed_snapshot(db.epoch(), covered, &["x"], rels);
    // The hand framing is the codec's, byte for byte, and restores.
    log.write_blob(&name, &mut |sink| {
        write_snapshot(sink, &db, covered).map(drop)
    })
    .unwrap();
    let (mut reader, _) = log.read_blob(&name).unwrap().unwrap();
    let mut written = Vec::new();
    reader.read_to_end(&mut written).unwrap();
    drop(reader);
    assert_eq!(frame(&genuine), written);
    log.truncate(0).unwrap();
    let (restored, report) = recover(&*log, catalog()).unwrap();
    assert_eq!(report.snapshot.as_deref(), Some(name.as_str()));
    assert_eq!(state(&restored), oracle);

    type Tamper = fn(&mut [SnapRel; 2]);
    let cases: [(&str, Tamper); 7] = [
        ("symbol id past its table", |rels| {
            rels[0].cells[0] = Cell::from_sym(Sym(1))
        }),
        ("wide-int id past its pool", |rels| {
            rels[0].cells[0] = Cell::from_raw(0b100).unwrap()
        }),
        ("index key column past the width", |rels| {
            rels[0].indexes = vec![(vec![2], vec![1])]
        }),
        ("index value column past the width", |rels| {
            rels[0].indexes = vec![(vec![0], vec![2])]
        }),
        ("width narrower than the catalog's", |rels| {
            (rels[0].arity, rels[0].rows) = (1, 2)
        }),
        ("width wider than the catalog's", |rels| {
            rels[1].arity = 2;
            rels[1].cells.push(Cell::NULL);
        }),
        ("width of zero", |rels| {
            (rels[1].arity, rels[1].rows) = (0, 0);
            rels[1].cells.clear();
        }),
    ];
    for (case, tamper) in cases {
        let mut rels = genuine.clone();
        tamper(&mut rels);
        let blob = frame(&rels);

        // The log still holds everything the snapshot covers: recovery
        // skips the snapshot and replays the log from its start.
        let (log, _, _) = history();
        put(&log, &name, &blob);
        let (recovered, report) = recover(&*log, catalog())
            .unwrap_or_else(|e| panic!("{case}: expected a fallback, got {e}"));
        assert_eq!(report.snapshot, None, "{case}");
        assert_eq!(report.snapshots_skipped, 1, "{case}");
        assert_eq!(state(&recovered), oracle, "{case}");

        // A checkpoint's cut took the log: nothing is left to fall back to.
        let (log, _, _) = history();
        put(&log, &name, &blob);
        log.truncate(0).unwrap();
        let before = stored(&log);
        match recover(&*log, catalog()) {
            Err(RecoverError::SnapshotUnreadable { snapshot, last_seq }) => {
                assert_eq!((snapshot, last_seq), (name.clone(), covered), "{case}");
            }
            other => panic!("{case}: expected a refusal, got {other:?}"),
        }
        assert_eq!(stored(&log), before, "{case}: a refusal changes nothing");
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
    db.ensure_indexes_cols(&[(RelId(0), &[0], &[1])]);
    let (name, _) = checkpoint(&w, &db).unwrap();
    assert_eq!(log_bytes(&log), 0, "the checkpoint cut the log");

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
    // One checkpoint behind, writes on both relations since, then a
    // second checkpoint whose mutating calls are: log sync, blob write,
    // blob sync, the log's truncate, one delete of the old snapshot.
    let scenario = || {
        let log = Arc::new(MemLog::new());
        let (mut db, w) = wired(&log, SyncPolicy::Always);
        db.insert("r", &[Value::str("a"), Value::int(1)]).unwrap();
        w.ack().unwrap();
        db.insert("s", &[Value::int(2)]).unwrap();
        w.ack().unwrap();
        checkpoint(&w, &db).unwrap();
        db.insert("r", &[Value::str("b"), Value::int(3)]).unwrap();
        w.ack().unwrap();
        db.insert("s", &[Value::int(4)]).unwrap();
        w.ack().unwrap();
        db.ensure_indexes_cols(&[(RelId(0), &[0], &[1])]);
        w.ack().unwrap();
        (log, db, w)
    };
    let steps = 3 + 1 + 1;
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
            assert!(!report2.truncated, "{at}");
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
    assert!(!report2.truncated);

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
        w.ack().unwrap();
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
    db.ensure_indexes_cols(&[(RelId(0), &[0], &[1])]);
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
    let cells = [syms.encode(&Value::int(7)), syms.encode(&Value::int(8))];
    let rogue = WalOp::Insert {
        commit: 9,
        rel: RelId(0),
        cells: &cells,
    };
    let mut payload = Vec::new();
    encode_op_into(9, &rogue, &mut payload);
    let mut framed = Vec::new();
    append_frame(&mut framed, &payload);
    log.append(&framed).unwrap();
    log.sync().unwrap();

    let (recovered, report) = recover(&*log, catalog()).unwrap();
    assert_eq!(state(&recovered), oracle);
    assert_eq!(report.last_seq, 2);
    assert_eq!(report.discarded, 1);
    assert!(report.truncated, "the gap suffix is cut away");
    // And the cut is durable: a second recovery sees a clean log.
    let (_, report2) = recover(&*log, catalog()).unwrap();
    assert_eq!(report2.discarded, 0);
}

/// One framed insert of `value` into `s`, numbered `seq` and stamped
/// commit `seq` — on a fresh log, the stamp replay arrives at when the
/// records before it are the inserts numbered `1..seq`.
fn insert_frame(seq: u64, value: i64) -> Vec<u8> {
    let mut syms = SymbolTable::new();
    let cells = [syms.encode(&Value::int(value))];
    let op = WalOp::Insert {
        commit: seq,
        rel: RelId(1),
        cells: &cells,
    };
    let mut payload = Vec::new();
    encode_op_into(seq, &op, &mut payload);
    let mut framed = Vec::new();
    append_frame(&mut framed, &payload);
    framed
}

#[test]
fn a_record_whose_number_is_not_the_next_one_ends_the_run() {
    // Skipping ahead, repeating and stepping back all end the run at the
    // record that broke the order; a step back is damage too, not a
    // reordering to undo.
    for (seqs, kept) in [
        (&[1, 2, 4, 3][..], 2),
        (&[1, 2, 2, 3][..], 2),
        (&[1, 3, 2][..], 1),
    ] {
        let log = MemLog::new();
        for &seq in seqs {
            log.append(&insert_frame(seq, 10 * seq as i64)).unwrap();
        }
        log.sync().unwrap();

        let (recovered, report) = recover(&log, catalog()).unwrap();
        let rows: Vec<_> = recovered.value_rows(RelId(1)).collect();
        let want: Vec<_> = (1..=kept as i64)
            .map(|seq| vec![Value::int(10 * seq)])
            .collect();
        assert_eq!(rows, want, "{seqs:?}");
        assert_eq!(report.last_seq, kept, "{seqs:?}");
        assert_eq!(report.discarded, seqs.len() as u64 - kept, "{seqs:?}");
        assert!(report.truncated, "{seqs:?}: the rest is cut away");
        // A second recovery sees a clean log.
        let (_, report2) = recover(&log, catalog()).unwrap();
        assert_eq!(report2.last_seq, kept, "{seqs:?}");
        assert_eq!(report2.discarded, 0, "{seqs:?}");
        assert!(!report2.truncated, "{seqs:?}");
    }
}

#[test]
fn a_retired_record_kind_is_refused_by_name_at_its_offset() {
    let log = Arc::new(MemLog::new());
    let (mut db, _w) = wired(&log, SyncPolicy::Always);
    db.insert("r", &[Value::int(1), Value::int(2)]).unwrap();
    let offset = log.read().unwrap().len();
    // A CRC-valid frame of tag 3, an index-dropping insert: the tag byte
    // follows the record's sequence number.
    let mut syms = SymbolTable::new();
    let cells = [syms.encode(&Value::int(3)), syms.encode(&Value::int(4))];
    let op = WalOp::Insert {
        commit: 2,
        rel: RelId(0),
        cells: &cells,
    };
    let mut payload = Vec::new();
    encode_op_into(2, &op, &mut payload);
    payload[8] = 3;
    let mut framed = Vec::new();
    append_frame(&mut framed, &payload);
    log.append(&framed).unwrap();
    log.sync().unwrap();

    let before = stored(&log);
    match recover(&*log, catalog()) {
        Err(RecoverError::Record { offset: at, msg }) => {
            assert_eq!(at, offset, "the frame's start");
            assert!(msg.contains("index-dropping Insert"), "{msg}");
        }
        other => panic!("expected an unparseable record, got {other:?}"),
    }
    assert_eq!(stored(&log), before, "a refusal changes nothing");
}

#[test]
fn bulk_chunk_of_the_wrong_width_is_a_replay_error_not_a_panic() {
    // A well-framed, CRC-valid chunk whose cell count is a multiple of its
    // row count but not `rows × arity`: `r` has arity 2, the chunk claims
    // 2 rows in 6 cells. Recovery must refuse it before it reaches the
    // table's arity assertion.
    let log = Arc::new(MemLog::new());
    let mut syms = SymbolTable::new();
    let cells = [syms.encode(&Value::int(7)); 6];
    let ops = [
        WalOp::BulkBegin {
            commit: 1,
            rel: RelId(0),
        },
        WalOp::BulkChunk {
            rel: RelId(0),
            rows: 2,
            cells: &cells,
        },
        WalOp::BulkEnd { rel: RelId(0) },
    ];
    let mut framed = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let mut payload = Vec::new();
        encode_op_into(i as u64 + 1, op, &mut payload);
        append_frame(&mut framed, &payload);
    }
    log.append(&framed).unwrap();
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

/// The small int whose cell word [`bad_tag`] replaces in an encoded log.
const MARKER: i64 = 0x5eed;

/// A frame the out-of-contract cases log: an op, or an op whose [`MARKER`]
/// cell word is rewritten to carry an unknown tag — a word no `Cell` can
/// hold, so it can only be written as bytes.
#[derive(Clone, Copy)]
enum Logged<'a> {
    Op(WalOp<'a>),
    BadTag(WalOp<'a>),
}
use Logged::{BadTag, Op};

/// A synced log of CRC-valid frames, numbered from 1.
fn log_of(frames: &[Logged<'_>]) -> MemLog {
    let marker = Cell::from_small_int(MARKER).unwrap().raw().to_le_bytes();
    let mut framed = Vec::new();
    for (i, frame) in frames.iter().enumerate() {
        let mut payload = Vec::new();
        let (op, bad) = match frame {
            Op(op) => (op, false),
            BadTag(op) => (op, true),
        };
        encode_op_into(i as u64 + 1, op, &mut payload);
        if bad {
            let at = payload.windows(8).position(|w| w == marker).unwrap();
            payload[at..at + 8].copy_from_slice(&0b1101u64.to_le_bytes());
        }
        append_frame(&mut framed, &payload);
    }
    let log = MemLog::new();
    log.append(&framed).unwrap();
    log.sync().unwrap();
    log
}

#[test]
fn every_out_of_contract_log_is_refused_without_a_panic_or_a_change() {
    let int = |i| Cell::from_small_int(i).unwrap();
    let (r, s, nowhere) = (RelId(0), RelId(1), RelId(2));
    // Ids no record interned: symbol 0 and wide-int pool index 0.
    let sym = [Cell::from_sym(Sym(0)), int(1)];
    let wide = [Cell::from_raw(0b100).unwrap(), int(1)];
    let marked = [int(MARKER), int(1)];
    let row = [int(1), int(2)];
    let one = [int(1)];
    let thousand = [int(1); 1_000];
    let long = "x".repeat(10_000);
    let begin = |commit| Op(WalOp::BulkBegin { commit, rel: r });
    let end = Op(WalOp::BulkEnd { rel: r });
    let insert = |commit, rel, cells| WalOp::Insert { commit, rel, cells };
    let delete = |commit, rel, cells| WalOp::Delete { commit, rel, cells };
    let chunk = |cells| WalOp::BulkChunk {
        rel: r,
        rows: 1,
        cells,
    };
    let index = |commit, rel| WalOp::EnsureIndex {
        commit,
        rel,
        x: &[0],
        y: &[0],
    };
    let str_at = |id, text| Op(WalOp::InternStr { id, text });
    let wide_at = |id| {
        Op(WalOp::InternWide {
            id,
            value: i64::MAX,
        })
    };
    let cases: Vec<(&str, Vec<Logged<'_>>)> = vec![
        ("intern id skips ahead", vec![str_at(1, &long)]),
        ("intern id repeats", vec![str_at(0, "x"), str_at(0, "y")]),
        (
            "bulk intern id skips ahead",
            vec![begin(1), wide_at(1), end],
        ),
        (
            "bulk intern id repeats",
            vec![begin(1), str_at(0, "x"), str_at(0, "y"), end],
        ),
        (
            "insert of a never-interned symbol",
            vec![Op(insert(1, r, &sym))],
        ),
        (
            "insert past the wide-int pool",
            vec![Op(insert(1, r, &wide))],
        ),
        ("insert of a bad tag", vec![BadTag(insert(1, r, &marked))]),
        (
            "delete of a never-interned symbol",
            vec![Op(delete(1, r, &sym))],
        ),
        (
            "delete past the wide-int pool",
            vec![Op(delete(1, r, &wide))],
        ),
        ("delete of a bad tag", vec![BadTag(delete(1, r, &marked))]),
        (
            "chunk of a never-interned symbol",
            vec![begin(1), Op(chunk(&sym)), end],
        ),
        (
            "chunk past the wide-int pool",
            vec![begin(1), Op(chunk(&wide)), end],
        ),
        (
            "chunk of a bad tag",
            vec![begin(1), BadTag(chunk(&marked)), end],
        ),
        (
            "insert past the catalog",
            vec![Op(insert(1, nowhere, &row))],
        ),
        (
            "delete past the catalog",
            vec![Op(delete(1, nowhere, &row))],
        ),
        (
            "bulk load past the catalog",
            vec![
                Op(WalOp::BulkBegin {
                    commit: 1,
                    rel: nowhere,
                }),
                Op(WalOp::BulkEnd { rel: nowhere }),
            ],
        ),
        ("index past the catalog", vec![Op(index(1, nowhere))]),
        ("insert stamped ahead", vec![Op(insert(2, r, &row))]),
        (
            "insert stamped behind",
            vec![Op(insert(1, r, &row)), Op(insert(1, r, &row))],
        ),
        (
            "delete stamped ahead",
            vec![Op(insert(1, r, &row)), Op(delete(3, r, &row))],
        ),
        ("bulk load stamped ahead", vec![begin(2), end]),
        ("index stamped ahead", vec![Op(index(2, s))]),
        (
            "index column past the arity",
            vec![
                Op(insert(1, r, &row)),
                Op(WalOp::EnsureIndex {
                    commit: 2,
                    rel: r,
                    x: &[2],
                    y: &[0],
                }),
            ],
        ),
        ("delete of an absent row", vec![Op(delete(1, r, &row))]),
        (
            "insert inside an open bulk load",
            vec![begin(1), Op(insert(2, s, &one)), end],
        ),
        (
            "chunk of another relation inside a bulk load",
            vec![
                begin(1),
                Op(WalOp::BulkChunk {
                    rel: s,
                    rows: 1_000,
                    cells: &thousand,
                }),
                end,
            ],
        ),
        ("bulk end with no begin", vec![end]),
        ("chunk with no begin", vec![Op(chunk(&row))]),
    ];
    for (case, frames) in &cases {
        let log = log_of(frames);
        let before = stored(&log);
        // A word with no valid tag does not decode; the rest decode and
        // are refused by replay.
        let bad_tag = frames.iter().any(|f| matches!(f, BadTag(_)));
        let recovered = recover(&log, catalog());
        // A refusal names the record, never its payload.
        if let Err(e) = &recovered {
            let msg = e.to_string();
            assert!(msg.len() <= 256, "{case}: {}-byte refusal {msg}", msg.len());
        }
        match recovered {
            Err(RecoverError::Record { msg, .. }) if bad_tag => {
                assert!(msg.contains("invalid cell word 0xd"), "{case}: {msg}");
            }
            Err(RecoverError::Replay(_)) if !bad_tag => {}
            other => panic!("{case}: expected a refusal, got {other:?}"),
        }
        assert_eq!(stored(&log), before, "{case}: a refusal changes nothing");
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
    // No snapshot. The live side builds its indices one
    // `ensure_indexes_cols` call each; replay meets the same records as
    // runs — one spanning both relations, a lone record between row
    // writes, a second run, and an unsynced run that the crash cuts
    // anywhere — and builds each run as one threaded batch.
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
        db.ensure_indexes_cols(&[(r, &[0], &[1])]);
        db.ensure_indexes_cols(&[(s, &[], &[0])]);
        db.ensure_indexes_cols(&[(r, &[], &[1])]);
        db.ensure_indexes_cols(&[(r, &[1], &[0])]);
        db.insert("r", &[Value::int(3), Value::int(4)]).unwrap();
        db.ensure_indexes_cols(&[(r, &[0, 1], &[0])]);
        assert!(db.delete("s", &[Value::int(2)]).unwrap().is_some());
        db.ensure_indexes_cols(&[(r, &[0], &[0, 1])]);
        db.ensure_indexes_cols(&[(r, &[], &[0])]);
        log.sync().unwrap();
        let synced_seq = w.last_seq();
        let mut oracles = vec![indexed_state(&db)];
        let mut ends = vec![0];
        for (rel, x, y) in tail {
            db.ensure_indexes_cols(&[(rel, x, y)]);
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
            truncated: torn > 0,
            ..RecoveryReport::default()
        };
        assert_eq!(report, want, "crash at {keep}");
        // And the cut log recovers to the same place again.
        let (again, report) = recover(&*log, catalog()).unwrap();
        assert_eq!(indexed_state(&again), oracles[whole]);
        assert_eq!((report.last_seq, report.torn_bytes), (want.last_seq, 0));
    }
}

/// Lower-case hex of `bytes`.
fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn surviving_records_are_byte_identical_to_the_pre_retirement_format() {
    // Frames captured at the commit before the index-dropping record kinds
    // were retired, when the log was still split into an interning stream
    // and one stream per relation, from this exact sequence: an index
    // build, a served insert and delete on `r` (tags 9, 4, 6), then a
    // one-chunk bulk load of `s` (tags 7, 11, 10) with a string and a
    // wide-int intern (tags 1, 2).
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
    // The one log holds those frames merged by sequence number.
    let unhex = |h: &str| -> Vec<u8> {
        (0..h.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&h[i..i + 2], 16).unwrap())
            .collect()
    };
    let captured = [META, REL_0, REL_1].map(unhex);
    let mut frames: Vec<(u64, &[u8])> = Vec::new();
    for bytes in &captured {
        let decoded = decode_frames(bytes).unwrap();
        assert_eq!(decoded.torn_bytes, 0);
        for (start, end, payload) in decoded.frames {
            let seq = decode_op(payload, &mut DecodeScratch::default()).unwrap().0;
            frames.push((seq, &bytes[start..end]));
        }
    }
    frames.sort_by_key(|&(seq, _)| seq);
    let seqs: Vec<u64> = frames.iter().map(|&(seq, _)| seq).collect();
    assert_eq!(seqs, (1..=8).collect::<Vec<u64>>());
    let want = hex(&frames.iter().map(|&(_, f)| f).collect::<Vec<_>>().concat());
    let row = [Value::str("k"), Value::int(7)];
    // The row writes once in place and once prepared off the commit lock:
    // both must land the same bytes.
    for prepared in [false, true] {
        let log = Arc::new(MemLog::new());
        let (mut db, _w) = wired(&log, SyncPolicy::Always);
        db.ensure_indexes_cols(&[(RelId(0), &[0], &[1])]);
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
        assert_eq!(hex(&log.read().unwrap()), want, "prepared = {prepared}");
    }
}
