//! Fault-injection matrix for the durability layer, driven end-to-end
//! through [`MemLog`]'s crash model: torn tails, cut and tampered
//! checkpoint bases, a crash at every step of a checkpoint, CRC
//! corruption, lying fsyncs, torn bulk loads, and out-of-order sequence
//! numbers — each asserting recovery lands on a consistent committed
//! prefix (or fails loudly when the log is damaged in a way a crash cannot
//! produce).

use bcq_core::prelude::*;
use bcq_durability::{
    checkpoint,
    frame::append_frame,
    record::{decode_op, encode_op_into},
    recover, DecodeScratch, FrameReader, LogStorage, MemLog, RecoverError, RecoveryReport,
    SyncPolicy, WalWriter,
};
use bcq_storage::{Database, Prepare, RowOp, WalOp};
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
type State = (u64, Vec<RelState>);

fn state(db: &Database) -> State {
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

/// The log's bytes: what recovery must not touch when it refuses.
fn stored(log: &MemLog) -> Vec<u8> {
    log.bytes()
}

/// Bytes the log holds.
fn log_bytes(log: &MemLog) -> u64 {
    stored(log).len() as u64
}

/// A log that begins with a base: a checkpoint of an intern, rows in both
/// relations and an index, then a tail of two inserts and an intern. The
/// log, its base's length, and the end offset of the base and of each
/// insert with the state there.
fn base_and_tail() -> (Arc<MemLog>, u64, Vec<(u64, State)>) {
    let log = Arc::new(MemLog::new());
    let (mut db, w) = wired(&log, SyncPolicy::Always);
    db.insert("r", &[Value::str("x"), Value::int(1)]).unwrap();
    db.bulk_loader(RelId(1))
        .push_rows(&(0..600).map(Value::int).collect::<Vec<_>>());
    db.ensure_indexes_cols(&[(RelId(0), &[0], &[1])]);
    let base = checkpoint(&w, &db).unwrap();
    let mut states = vec![(base, state(&db))];
    db.insert("s", &[Value::int(-5)]).unwrap();
    states.push((log_bytes(&log), state(&db)));
    db.insert("r", &[Value::str("y"), Value::int(2)]).unwrap();
    states.push((log_bytes(&log), state(&db)));
    log.sync().unwrap();
    (log, base, states)
}

/// `bytes` as a synced log.
fn log_holding(bytes: &[u8]) -> MemLog {
    let log = MemLog::new();
    log.append(bytes).unwrap();
    log.sync().unwrap();
    log
}

#[test]
fn a_base_cut_anywhere_is_refused_and_a_cut_tail_keeps_the_base() {
    let (log, base, states) = base_and_tail();
    let bytes = stored(&log);
    // A history's first record is numbered 1, a base's 0: a cut before
    // the first sequence number has a byte to show is indistinguishable
    // from a history whose first append tore, and recovers nothing.
    for cut in 0..=bytes.len() {
        let cut_log = log_holding(&bytes[..cut]);
        let recovered = recover(&cut_log, catalog());
        if cut <= 8 {
            let (db, report) = recovered.unwrap();
            assert_eq!(
                (db.epoch(), report.torn_bytes),
                (0, cut as u64),
                "cut {cut}"
            );
        } else if (cut as u64) < base {
            assert!(
                matches!(recovered, Err(RecoverError::IncompleteBase { .. })),
                "cut {cut} of the {base}-byte base: {recovered:?}"
            );
            assert_eq!(
                stored(&cut_log),
                &bytes[..cut],
                "cut {cut}: nothing changed"
            );
        } else {
            // The base and every tail record that made it whole.
            let (db, report) = recovered.unwrap();
            let (end, want) = states
                .iter()
                .rev()
                .find(|(end, _)| *end <= cut as u64)
                .unwrap();
            assert_eq!(&state(&db), want, "cut {cut}");
            assert_eq!(report.snapshot_bytes, base, "cut {cut}");
            // An intern record before its insert is kept whole too.
            assert!(report.log_bytes >= end - base, "cut {cut}");
            assert_eq!(report.log_bytes + report.torn_bytes, cut as u64 - base);
        }
    }
}

#[test]
fn a_base_spliced_onto_its_tail_is_refused_not_replayed() {
    // The base loses bytes from its middle (or its end) while the records
    // after it stay: whatever the frames now read as, no state comes back.
    for (past, keep) in [(0, 20), (2, 20), (2, 200), (2, usize::MAX)] {
        let log = Arc::new(MemLog::new());
        let (mut db, w) = wired(&log, SyncPolicy::Always);
        db.insert("r", &[Value::str("x"), Value::int(1)]).unwrap();
        db.insert("s", &[Value::int(2)]).unwrap();
        let base = checkpoint(&w, &db).unwrap() as usize;
        for i in 0..past {
            db.insert("s", &[Value::int(10 + i)]).unwrap();
        }
        let bytes = stored(&log);
        // All of the base but its closing record, when `keep` is past it.
        let keep = keep.min(base - 41);
        let spliced = [&bytes[..keep], &bytes[base..]].concat();
        let spliced_log = log_holding(&spliced);
        let recovered = recover(&spliced_log, catalog());
        assert!(
            matches!(
                recovered,
                Err(RecoverError::IncompleteBase { .. } | RecoverError::Corrupt { .. })
            ),
            "{past} past, {keep} kept: {recovered:?}"
        );
        assert_eq!(
            stored(&spliced_log),
            spliced,
            "{past} past: every byte in place"
        );
    }
}

/// `frames` framed as a log numbered from 0: a compacted base written by
/// hand.
fn base_of(frames: &[WalOp<'_>]) -> Vec<u8> {
    let mut framed = Vec::new();
    for (seq, op) in frames.iter().enumerate() {
        let mut payload = Vec::new();
        encode_op_into(seq as u64, op, &mut payload);
        append_frame(&mut framed, &payload);
    }
    framed
}

#[test]
fn a_tampered_base_is_refused_and_changes_nothing() {
    // An intern, two inserts and an index build, then the checkpoint.
    let log = Arc::new(MemLog::new());
    let (mut db, w) = wired(&log, SyncPolicy::Always);
    db.insert("r", &[Value::str("x"), Value::int(1)]).unwrap();
    db.insert("s", &[Value::int(2)]).unwrap();
    db.ensure_indexes_cols(&[(RelId(0), &[0], &[1])]);
    let covered = w.last_seq();
    checkpoint(&w, &db).unwrap();
    let oracle = state(&db);
    let int = |i| Cell::from_small_int(i).unwrap();
    let (r, s) = (RelId(0), RelId(1));
    let r_cells = [Cell::from_sym(Sym(0)), int(1)];
    let s_cells = [int(2)];
    let epochs = [db.epoch_of(r), db.epoch_of(s)];
    let genuine = [
        WalOp::InternStr { id: 0, text: "x" },
        WalOp::BulkBegin { commit: 1, rel: r },
        WalOp::BulkChunk {
            rel: r,
            rows: 1,
            cells: &r_cells,
        },
        WalOp::BulkEnd { rel: r },
        WalOp::BulkBegin { commit: 2, rel: s },
        WalOp::BulkChunk {
            rel: s,
            rows: 1,
            cells: &s_cells,
        },
        WalOp::BulkEnd { rel: s },
        WalOp::EnsureIndex {
            commit: 3,
            rel: r,
            x: &[0],
            y: &[1],
        },
        WalOp::Checkpoint {
            commit: db.epoch(),
            last_seq: covered,
            epochs: &epochs,
        },
    ];
    // The hand framing is the checkpoint's, byte for byte, and recovers.
    assert_eq!(base_of(&genuine), stored(&log));
    let (recovered, report) = recover(&*log, catalog()).unwrap();
    assert_eq!(state(&recovered), oracle);
    assert_eq!(report.last_seq, covered);

    let unknown_sym = [Cell::from_sym(Sym(1)), int(1)];
    let unknown_wide = [Cell::from_raw(0b100).unwrap(), int(1)];
    let s_wide = [int(2), Cell::NULL];
    let ahead = [db.epoch() + 1, db.epoch_of(s)];
    let cases: [(&str, usize, WalOp<'_>); 8] = [
        (
            "symbol id past its table",
            2,
            WalOp::BulkChunk {
                rel: r,
                rows: 1,
                cells: &unknown_sym,
            },
        ),
        (
            "wide-int id past its pool",
            2,
            WalOp::BulkChunk {
                rel: r,
                rows: 1,
                cells: &unknown_wide,
            },
        ),
        (
            "index key column past the width",
            7,
            WalOp::EnsureIndex {
                commit: 3,
                rel: r,
                x: &[2],
                y: &[1],
            },
        ),
        (
            "index value column past the width",
            7,
            WalOp::EnsureIndex {
                commit: 3,
                rel: r,
                x: &[0],
                y: &[2],
            },
        ),
        (
            "width narrower than the catalog's",
            2,
            WalOp::BulkChunk {
                rel: r,
                rows: 2,
                cells: &r_cells,
            },
        ),
        (
            "width wider than the catalog's",
            5,
            WalOp::BulkChunk {
                rel: s,
                rows: 1,
                cells: &s_wide,
            },
        ),
        (
            "width of zero",
            5,
            WalOp::BulkChunk {
                rel: s,
                rows: 0,
                cells: &[],
            },
        ),
        (
            "epoch beyond its commit",
            8,
            WalOp::Checkpoint {
                commit: db.epoch(),
                last_seq: covered,
                epochs: &ahead,
            },
        ),
    ];
    for (case, at, tampered) in cases {
        let mut frames = genuine;
        frames[at] = tampered;
        // With a tail past the base, and without.
        for tail in [false, true] {
            let mut bytes = base_of(&frames);
            if tail {
                bytes.extend(insert_frame(covered + 1, 99));
            }
            let log = log_holding(&bytes);
            let recovered = recover(&log, catalog());
            assert!(
                matches!(recovered, Err(RecoverError::Replay(_))),
                "{case}, tail {tail}: expected a refusal, got {recovered:?}"
            );
            assert_eq!(stored(&log), bytes, "{case}: a refusal changes nothing");
        }
    }
}

#[test]
fn recovery_after_a_checkpoint_replays_the_base_and_the_tail() {
    let log = Arc::new(MemLog::new());
    let (mut db, w) = wired(&log, SyncPolicy::Always);
    for i in 0..50 {
        db.insert("r", &[Value::int(i), Value::str(format!("v{i}"))])
            .unwrap();
    }
    db.bulk_loader(RelId(1))
        .push_rows(&(0..40).map(Value::int).collect::<Vec<_>>());
    db.ensure_indexes_cols(&[(RelId(0), &[0], &[1])]);
    let base = checkpoint(&w, &db).unwrap();
    assert_eq!(log_bytes(&log), base, "the log is the base alone");

    let k = 3;
    let bytes_before = w.stats().bytes;
    for i in 0..k {
        db.insert("s", &[Value::int(100 + i)]).unwrap();
    }
    let tail = w.stats().bytes - bytes_before;
    let (recovered, report) = recover(&*log, catalog()).unwrap();
    assert_eq!(state(&recovered), state(&db));
    assert_eq!(report.snapshot_bytes, base);
    assert_eq!(report.replayed, k as u64);
    assert_eq!(report.log_bytes, tail, "the tail past the base");
    assert_eq!(report.log_bytes + base, log_bytes(&log));
}

#[test]
fn a_crash_at_every_step_of_a_checkpoint_recovers_to_the_uncrashed_state() {
    // One checkpoint behind, writes on both relations since, then a
    // second checkpoint whose mutating calls are: the log's sync, then the
    // replacement's temp-file fsync, rename and directory fsync.
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
    // The intern and insert of "b", the insert of 4, the index.
    let tail_records = 4;
    let steps = 1 + 3;
    for n in 0..=steps {
        // Where the rename went through but the directory's fsync did
        // not, the crash keeps the new log or the old one.
        let unsynced = {
            let (log, db, w) = scenario();
            log.fail_after(n);
            assert_eq!(checkpoint(&w, &db).is_err(), n < steps, "step {n}");
            log.unsynced_bytes()
        };
        assert_eq!(unsynced > 0, n == 3, "step {n}");
        let mut keeps = vec![0, unsynced / 2, unsynced];
        keeps.dedup();
        for keep in keeps {
            let (log, db, w) = scenario();
            log.fail_after(n);
            let _ = checkpoint(&w, &db);
            log.crash(keep);
            let at = format!("crash after {n} steps, {keep} unsynced bytes kept");
            let (recovered, report) = recover(&*log, catalog()).unwrap();
            assert_eq!(state(&recovered), state(&db), "{at}");
            assert_eq!(report.last_seq, w.last_seq(), "{at}");
            // The new base is the log from the directory's fsync on (or
            // when the crash happened to keep the rename).
            let new_base = n == steps || (n == 3 && keep == unsynced);
            let replayed = if new_base { 0 } else { tail_records };
            assert_eq!(report.replayed, replayed, "{at}");
            assert_eq!(report.log_bytes == 0, new_base, "{at}");

            let (again, report2) = recover(&*log, catalog()).unwrap();
            assert_eq!(state(&again), state(&db), "{at}");
            assert!(!report2.truncated, "{at}");
            assert_eq!(report2, report, "{at}: recovering twice");
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
    assert_eq!(report.snapshot_bytes, 0);
    assert_eq!(state(&from_log), state(&db));
    let base = checkpoint(&w, &db).unwrap();
    let (from_base, report) = recover(&*log, catalog()).unwrap();
    assert_eq!(report.snapshot_bytes, base);
    assert_eq!(report.replayed, 0);
    assert_eq!(state(&from_base), state(&db));
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
    let offset = log_bytes(&log) as usize;
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
        (
            "checkpoint record outside a base",
            vec![Op(WalOp::Checkpoint {
                commit: 0,
                last_seq: 0,
                epochs: &[0, 0],
            })],
        ),
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
fn indexed_state(db: &Database) -> (State, Vec<Vec<IndexState>>) {
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
        let len = bytes.len() as u64;
        let mut reader = FrameReader::new(std::io::Cursor::new(bytes), len);
        loop {
            let start = reader.pos() as usize;
            let Some(payload) = reader.next_frame().unwrap() else {
                break;
            };
            let seq = decode_op(payload, &mut DecodeScratch::default()).unwrap().0;
            frames.push((seq, &bytes[start..reader.pos() as usize]));
        }
        assert_eq!(reader.torn_bytes(), 0);
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
        assert_eq!(hex(&log.bytes()), want, "prepared = {prepared}");
    }
}
