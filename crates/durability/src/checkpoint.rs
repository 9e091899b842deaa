//! Checkpoints: the log compacted to the records of the current state.
//!
//! A checkpoint writes the database as the log's own records — the
//! **compacted base** — and makes it the whole log:
//!
//! 1. the intern records, in id order, so replay rebuilds the symbol
//!    table the cells are encoded against;
//! 2. one bulk bracket per non-empty relation, whose chunks are the
//!    table's cells, read straight out of the table one chunk at a time;
//! 3. one index record per index, in each relation's registration order;
//! 4. one [`WalOp::Checkpoint`] record carrying the global commit, every
//!    relation's epoch and the last sequence number the state covers.
//!
//! Each commit-bearing record is stamped with the commit replay arrives
//! at, and the closing record sets the vector clock to the one the state
//! was taken at, so a relation emptied by deletes keeps its epoch. The
//! base's records are numbered from 0, where a history starts at 1: that
//! is how recovery knows a log begins with a base, refuses one that ends
//! before its closing record, and continues at `last_seq + 1` after it.
//!
//! The base streams through one frame buffer of at most one chunk's
//! cells into [`crate::LogStorage::replace`], which writes a temp file, fsyncs
//! it, renames it over the log and fsyncs the directory: a crash at any
//! step keeps either the old log or the base, whole.

use crate::record::encode_frame;
use crate::writer::WalWriter;
use bcq_core::prelude::RelId;
use bcq_storage::{Database, WalOp};
use std::io::{self, Write};

/// Cell bytes one bulk chunk record of a base carries at most.
const CHUNK: usize = 64 * 1024;

/// Streams `db`, committed through sequence number `last_seq`, into
/// `sink` as a compacted base (see the [module docs](self)), returning
/// its length in bytes.
fn write_base(sink: &mut dyn Write, db: &Database, last_seq: u64) -> io::Result<u64> {
    let mut frame = Vec::with_capacity(CHUNK + 64);
    let (mut seq, mut written) = (0, 0);
    let mut put = |op: WalOp<'_>| {
        encode_frame(seq, &op, &mut frame);
        seq += 1;
        written += frame.len() as u64;
        sink.write_all(&frame)
    };

    let symbols = db.symbols();
    for (id, text) in symbols.strings().enumerate() {
        put(WalOp::InternStr {
            id: id as u32,
            text,
        })?;
    }
    for (id, &value) in symbols.wide_ints().iter().enumerate() {
        put(WalOp::InternWide {
            id: id as u32,
            value,
        })?;
    }

    let mut commit = 0;
    let relations = (0..db.num_relations()).map(RelId);
    for rel in relations.clone() {
        let table = db.table(rel);
        if table.is_empty() {
            continue;
        }
        commit += 1;
        put(WalOp::BulkBegin { commit, rel })?;
        let rows = (CHUNK / 8 / table.arity()).max(1);
        for cells in table.cells().chunks(rows * table.arity()) {
            let rows = (cells.len() / table.arity()) as u32;
            put(WalOp::BulkChunk { rel, rows, cells })?;
        }
        put(WalOp::BulkEnd { rel })?;
    }
    for rel in relations.clone() {
        for (x, y) in db.shard(rel).index_specs() {
            commit += 1;
            put(WalOp::EnsureIndex { commit, rel, x, y })?;
        }
    }
    let epochs: Vec<u64> = relations.map(|rel| db.epoch_of(rel)).collect();
    put(WalOp::Checkpoint {
        commit: db.epoch(),
        last_seq,
        epochs: &epochs,
    })?;
    Ok(written)
}

/// Checkpoints `db` into `writer`'s storage: syncs the log, then replaces
/// it with the compacted base of `db` ([`crate::LogStorage::replace`]).
/// Returns the base's length in bytes. The records appended after it
/// continue the writer's sequence numbers, and recovery replays them on
/// top of the base.
///
/// `db` must be exactly the state `writer` has logged through
/// `writer.last_seq()`, and nothing may append to `writer` until this
/// returns: a record appended meanwhile would land in the log the base
/// replaces. `Server::checkpoint` in `bcq-service` guarantees both by
/// holding its bulk gate exclusively: every record is appended by a holder
/// of that gate (row writers share it, a bulk update holds it alone and
/// appends off the commit section), so while the checkpoint holds it
/// `last_seq` cannot move and the published state is the logged one. A
/// `last_seq` that moved anyway while the base was written is an error,
/// returned before the base replaces the log.
pub fn checkpoint(writer: &WalWriter, db: &Database) -> io::Result<u64> {
    let last_seq = writer.last_seq();
    // The log first: should the replacement fail, no record the log holds
    // is left unsynced behind a dropped append handle.
    writer.sync()?;
    let mut written = 0;
    writer.storage().replace(&mut |sink| {
        written = write_base(sink, db, last_seq)?;
        let moved = writer.last_seq();
        if moved != last_seq {
            return Err(io::Error::other(format!(
                "checkpoint at seq {last_seq}: the log moved on to seq {moved} meanwhile; \
                 the log is not replaced"
            )));
        }
        Ok(())
    })?;
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recover::recover;
    use crate::storage::{LogStorage, MemLog};
    use crate::writer::SyncPolicy;
    use bcq_core::prelude::*;
    use std::sync::Arc;

    fn sample_db() -> Database {
        let cat = Catalog::from_names(&[("r", &["a", "b"]), ("s", &["c"])]).unwrap();
        let mut a = AccessSchema::new(cat.clone());
        a.add("r", &["a"], &["b"], 10).unwrap();
        let mut db = Database::new(cat);
        db.insert("r", &[Value::str("x"), Value::int(1)]).unwrap();
        db.insert("r", &[Value::str("y"), Value::int(i64::MAX)])
            .unwrap();
        db.insert("s", &[Value::int(7)]).unwrap();
        db.build_indexes(&a);
        db
    }

    /// Comparable state: global epoch, then per relation its epoch, rows
    /// and index specs.
    type State = (
        u64,
        Vec<(u64, Vec<Vec<Value>>, Vec<(Vec<usize>, Vec<usize>)>)>,
    );
    fn state(db: &Database) -> State {
        let rels = (0..db.num_relations()).map(RelId).map(|rel| {
            let specs = db.shard(rel).index_specs();
            let specs = specs.map(|(x, y)| (x.to_vec(), y.to_vec())).collect();
            (db.epoch_of(rel), db.value_rows(rel).collect(), specs)
        });
        (db.epoch(), rels.collect())
    }

    /// The base `write_base` streams for `db` at `last_seq`.
    fn encode(db: &Database, last_seq: u64) -> Vec<u8> {
        let mut sink = Vec::new();
        let len = write_base(&mut sink, db, last_seq).unwrap();
        assert_eq!(len, sink.len() as u64);
        sink
    }

    /// `sample_db()`'s base at seq 42: two string interns and a wide-int
    /// intern (seq 0–2), the bracket of `r` at commit 1 (3–5), the bracket
    /// of `s` at commit 2 (6–8), the index on `r` at commit 3 (9), and the
    /// checkpoint record: commit 4, seq 42, epochs 4 and 3 (10).
    const PINNED_SAMPLE_BASE: &str = "\
        12000000cd7467eb00000000000000000100000000010000007812000000f9e6496401000000\
        000000000101000000010000007915000000e8f2426c02000000000000000200000000ffffff\
        ffffffff7f150000005f0dccdc03000000000000000701000000000000000000000035000000\
        7b052dbc04000000000000000b00000000020000000400000002000000000000000900000000\
        0000000a0000000000000004000000000000000d00000030edeb5805000000000000000a0000\
        000015000000ef3fcd9e0600000000000000070200000000000000010000001d000000e0e9f6\
        6d07000000000000000b01000000010000000100000039000000000000000d0000002bea7ba7\
        08000000000000000a0100000025000000ce28fc6d0900000000000000090300000000000000\
        00000000010000000000000001000000010000002d00000016bf95640a000000000000000c04\
        000000000000002a000000000000000200000004000000000000000300000000000000";

    #[test]
    fn the_base_is_byte_identical_to_the_pinned_format() {
        let db = sample_db();
        let hex: String = encode(&db, 42).iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, PINNED_SAMPLE_BASE);
    }

    #[test]
    fn a_checkpoint_replaces_the_log_with_a_base_that_recovers_the_state() {
        let mut db = sample_db();
        let catalog = Arc::clone(db.catalog());
        let log = Arc::new(MemLog::new());
        let writer = Arc::new(WalWriter::new(log.clone(), SyncPolicy::Manual, 1));
        db.set_wal(Some(writer.clone()));
        for i in 0..3 {
            db.insert("s", &[Value::int(100 + i)]).unwrap();
            let written = checkpoint(&writer, &db).unwrap();
            assert_eq!(
                log.bytes(),
                encode(&db, writer.last_seq()),
                "checkpoint {i}"
            );
            assert_eq!(written, log.bytes().len() as u64);
            let (recovered, report) = recover(&*log, Arc::clone(&catalog)).unwrap();
            assert_eq!(state(&recovered), state(&db), "checkpoint {i}");
            assert_eq!(report.snapshot_bytes, written);
            assert_eq!(report.last_seq, writer.last_seq());
            assert_eq!((report.replayed, report.log_bytes), (0, 0));
        }
        // Records after the base continue its numbers and replay on top.
        assert!(db.delete("s", &[Value::int(100)]).unwrap().is_some());
        db.insert("r", &[Value::str("z"), Value::int(-3)]).unwrap();
        let (recovered, report) = recover(&*log, catalog).unwrap();
        assert_eq!(state(&recovered), state(&db));
        assert_eq!(report.replayed, 3, "the delete, an intern and the insert");
    }

    #[test]
    fn a_base_larger_than_a_chunk_roundtrips_and_keeps_an_emptied_epoch() {
        let cat = Catalog::from_names(&[("r", &["a", "b", "c"]), ("s", &["d"])]).unwrap();
        let mut db = Database::new(cat.clone());
        let long = "z".repeat(CHUNK + 3);
        db.insert(
            "r",
            &[Value::str(&long), Value::int(-1), Value::int(1 << 62)],
        )
        .unwrap();
        for i in 0..10_000 {
            db.insert(
                "r",
                &[Value::int(i), Value::str(format!("v{i}")), Value::int(i)],
            )
            .unwrap();
        }
        // `s` is emptied again: it has no bracket, only its epoch.
        db.insert("s", &[Value::int(1)]).unwrap();
        db.delete("s", &[Value::int(1)]).unwrap();
        let bytes = encode(&db, 3);
        assert!(bytes.len() > 4 * CHUNK);
        let log = MemLog::new();
        log.replace(&mut |sink| sink.write_all(&bytes)).unwrap();
        let (recovered, _) = recover(&log, cat).unwrap();
        assert_eq!(state(&recovered), state(&db));
        assert_eq!(recovered.epoch_of(RelId(1)), db.epoch());
    }
}
