//! Vector-clock snapshots: a full dump of the database keyed by the
//! per-relation epoch vector, written as a single CRC-framed blob.
//!
//! A snapshot stores the global commit counter, the last WAL sequence
//! number it covers, the symbol-table dump (strings and wide ints in id
//! order, so restored cells decode identically), and per shard its epoch,
//! flattened rows, and the `(x, y)` specs of its indices. Restoring is
//! [`bcq_storage::Database::restore`] plus replay of every WAL record
//! with a sequence number beyond [`DecodedSnapshot::last_seq`].
//!
//! [`checkpoint`] writes a snapshot with a **sync-before, sync-after**
//! discipline and then **cuts the log**: the log is flushed first (a
//! snapshot must never claim records the log doesn't durably hold), then
//! the blob is written and flushed, and only then is the log truncated
//! to 0 and every older snapshot deleted. The store then holds one copy
//! of the data. A crash before the new blob is durable leaves the
//! previous snapshot and the whole log since it, so a torn snapshot still
//! falls back; a crash before the cut leaves a log that the durable
//! snapshot covers entirely, which recovery cuts in its turn.

use crate::frame::{append_frame, decode_frames};
use crate::record::Reader;
use crate::storage::LogStorage;
use crate::writer::WalWriter;
use bcq_core::prelude::{Catalog, Cell, SymbolTable, Value};
use bcq_storage::{Database, ShardState};
use std::io;
use std::sync::Arc;

/// Blob-name prefix for snapshots; the suffix is the zero-padded covered
/// sequence number, so lexicographic order is chronological order.
pub const SNAP_PREFIX: &str = "snap-";

/// Magic bytes leading every snapshot blob.
const MAGIC: &[u8; 8] = b"BCQSNAP1";

/// The blob name of a snapshot covering WAL records up to `last_seq`.
pub fn snapshot_name(last_seq: u64) -> String {
    format!("{SNAP_PREFIX}{last_seq:020}")
}

/// Every snapshot blob in `storage` with the sequence number its name
/// covers, oldest first.
pub(crate) fn snapshots(storage: &dyn LogStorage) -> io::Result<Vec<(u64, String)>> {
    let mut snaps: Vec<(u64, String)> = storage
        .list_blobs()?
        .into_iter()
        .filter_map(|name| Some((name.strip_prefix(SNAP_PREFIX)?.parse().ok()?, name)))
        .collect();
    snaps.sort();
    Ok(snaps)
}

/// A parsed snapshot, ready to restore.
#[derive(Debug)]
pub struct DecodedSnapshot {
    /// The global commit counter at snapshot time.
    pub commit: u64,
    /// Last WAL sequence number reflected in the snapshot; replay starts
    /// at `last_seq + 1`.
    pub last_seq: u64,
    /// Full symbol-table dump.
    pub symbols: SymbolTable,
    /// Per-relation state, in relation order.
    pub shards: Vec<ShardState>,
}

/// Serializes `db` (committed through `last_seq`) into blob bytes.
pub fn encode_snapshot(db: &Database, last_seq: u64) -> Vec<u8> {
    let mut payload = Vec::new();
    payload.extend_from_slice(&db.epoch().to_le_bytes());
    payload.extend_from_slice(&last_seq.to_le_bytes());

    let symbols = db.symbols();
    payload.extend_from_slice(&(symbols.len() as u32).to_le_bytes());
    for s in symbols.strings() {
        payload.extend_from_slice(&(s.len() as u32).to_le_bytes());
        payload.extend_from_slice(s.as_bytes());
    }
    payload.extend_from_slice(&(symbols.num_wide_ints() as u32).to_le_bytes());
    for &w in symbols.wide_ints() {
        payload.extend_from_slice(&w.to_le_bytes());
    }

    payload.extend_from_slice(&(db.num_relations() as u32).to_le_bytes());
    for rel in 0..db.num_relations() {
        let shard = db.shard(bcq_core::prelude::RelId(rel));
        payload.extend_from_slice(&shard.epoch().to_le_bytes());
        let table = shard.table();
        payload.extend_from_slice(&(table.len() as u64).to_le_bytes());
        payload.extend_from_slice(&(table.arity() as u32).to_le_bytes());
        for row in table.rows() {
            for cell in row {
                payload.extend_from_slice(&cell.raw().to_le_bytes());
            }
        }
        let specs: Vec<_> = shard.index_specs().collect();
        payload.extend_from_slice(&(specs.len() as u32).to_le_bytes());
        for (x, y) in specs {
            for cols in [x, y] {
                payload.extend_from_slice(&(cols.len() as u32).to_le_bytes());
                for &c in cols {
                    payload.extend_from_slice(&(c as u32).to_le_bytes());
                }
            }
        }
    }

    let mut out = Vec::with_capacity(payload.len() + MAGIC.len() + 8);
    out.extend_from_slice(MAGIC);
    append_frame(&mut out, &payload);
    out
}

/// Parses snapshot blob bytes. Any damage — missing magic, torn tail,
/// CRC mismatch, malformed payload — is an `Err`, which recovery treats
/// as "this snapshot never happened" and falls back to an older one.
pub fn decode_snapshot(bytes: &[u8]) -> Result<DecodedSnapshot, String> {
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        return Err("snapshot magic missing".into());
    }
    let framed = decode_frames(&bytes[MAGIC.len()..]).map_err(|e| e.to_string())?;
    let (_, end, payload) = *framed
        .frames
        .first()
        .ok_or_else(|| "snapshot payload torn".to_string())?;
    if framed.frames.len() != 1 || end != bytes.len() - MAGIC.len() {
        return Err("snapshot has trailing bytes".into());
    }

    let mut r = Reader::new(payload);
    let commit = r.u64()?;
    let last_seq = r.u64()?;

    let mut symbols = SymbolTable::new();
    let nstrings = r.u32()? as usize;
    for _ in 0..nstrings {
        let len = r.u32()? as usize;
        let s = std::str::from_utf8(r.take(len)?).map_err(|e| format!("symbol not UTF-8: {e}"))?;
        symbols.intern(s);
    }
    let nwide = r.u32()? as usize;
    for _ in 0..nwide {
        let w = r.i64()?;
        // Wide ints re-enter the pool through the encode path; pool order
        // equals dump order, so indices match the snapshotted cells.
        symbols.encode(&Value::Int(w));
    }
    if symbols.num_wide_ints() != nwide {
        return Err("wide-int dump contained a small int".into());
    }

    let nshards = r.u32()? as usize;
    let mut shards = Vec::with_capacity(nshards);
    for _ in 0..nshards {
        let epoch = r.u64()?;
        let nrows = r.u64()? as usize;
        let arity = r.u32()? as usize;
        let mut cells = Vec::with_capacity(nrows * arity);
        for _ in 0..nrows * arity {
            let raw = r.u64()?;
            cells.push(Cell::from_raw(raw).ok_or_else(|| format!("invalid cell word {raw:#x}"))?);
        }
        let nindexes = r.u32()? as usize;
        let mut indexes = Vec::with_capacity(nindexes);
        for _ in 0..nindexes {
            let mut xy = [Vec::new(), Vec::new()];
            for cols in &mut xy {
                let n = r.u32()? as usize;
                for _ in 0..n {
                    cols.push(r.u32()? as usize);
                }
            }
            let [x, y] = xy;
            indexes.push((x, y));
        }
        shards.push(ShardState {
            epoch,
            cells,
            indexes,
        });
    }
    r.done()?;
    Ok(DecodedSnapshot {
        commit,
        last_seq,
        symbols,
        shards,
    })
}

/// Restores a database from a decoded snapshot against `catalog`.
pub fn restore_snapshot(catalog: Arc<Catalog>, snap: DecodedSnapshot) -> Result<Database, String> {
    Database::restore(catalog, snap.symbols, snap.shards, snap.commit)
        .map_err(|e| format!("snapshot restore: {e}"))
}

/// Checkpoints `db` into `writer`'s storage and cuts the log behind it:
/// sync the log, write the snapshot blob, sync, then truncate the log to
/// 0 and delete every older snapshot. Returns the snapshot's
/// name and the bytes written — 0 when a snapshot at this sequence number
/// already exists, which is never rewritten in place (a torn rewrite
/// would lose what the cut already removed).
///
/// `db` must be exactly the state `writer` has logged through
/// `writer.last_seq()`, and nothing may append to `writer` until this
/// returns: the cut to 0 is only sound if the log holds no record past
/// the snapshot. `Server::checkpoint` in `bcq-service` guarantees both by
/// running inside the commit section — the only place records are
/// appended — with the bulk gate held exclusively. A `last_seq` that moved
/// anyway is an error, returned before anything is cut.
pub fn checkpoint(writer: &WalWriter, db: &Database) -> io::Result<(String, u64)> {
    let storage = &**writer.storage();
    let last_seq = writer.last_seq();
    // The log first: a snapshot must never cover records that are not
    // durably in the log (a torn snapshot's fallback replays them).
    writer.sync()?;
    let name = snapshot_name(last_seq);
    let snaps = snapshots(storage)?;
    let mut written = 0;
    if !snaps.iter().any(|(_, n)| *n == name) {
        let bytes = encode_snapshot(db, last_seq);
        storage.write_blob(&name, &bytes)?;
        storage.sync()?;
        written = bytes.len() as u64;
    }
    let moved = writer.last_seq();
    if moved != last_seq {
        return Err(io::Error::other(format!(
            "checkpoint at seq {last_seq}: the log moved on to seq {moved} meanwhile; \
             the snapshot is written but the log is not cut"
        )));
    }
    // The snapshot is durable: it covers every record in the log, and an
    // older snapshot could only be replayed forward through them.
    storage.truncate(0)?;
    for (seq, old) in &snaps {
        if *seq < last_seq {
            storage.delete_blob(old)?;
        }
    }
    Ok((name, written))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemLog;
    use bcq_core::prelude::*;

    fn sample_db() -> (Arc<Catalog>, Database) {
        let cat = Catalog::from_names(&[("r", &["a", "b"]), ("s", &["c"])]).unwrap();
        let mut a = AccessSchema::new(cat.clone());
        a.add("r", &["a"], &["b"], 10).unwrap();
        let mut db = Database::new(cat.clone());
        db.insert("r", &[Value::str("x"), Value::int(1)]).unwrap();
        db.insert("r", &[Value::str("y"), Value::int(i64::MAX)])
            .unwrap();
        db.insert("s", &[Value::int(7)]).unwrap();
        db.build_indexes(&a);
        (cat, db)
    }

    #[test]
    fn snapshot_roundtrips_rows_epochs_symbols_and_indexes() {
        let (cat, db) = sample_db();
        let bytes = encode_snapshot(&db, 42);
        let snap = decode_snapshot(&bytes).unwrap();
        assert_eq!(snap.commit, db.epoch());
        assert_eq!(snap.last_seq, 42);
        let restored = restore_snapshot(cat, snap).unwrap();
        assert_eq!(restored.epoch(), db.epoch());
        for rel in 0..db.num_relations() {
            let rel = RelId(rel);
            assert_eq!(restored.epoch_of(rel), db.epoch_of(rel));
            assert_eq!(
                restored.value_rows(rel).collect::<Vec<_>>(),
                db.value_rows(rel).collect::<Vec<_>>()
            );
            assert_eq!(
                restored.shard(rel).num_indexes(),
                db.shard(rel).num_indexes()
            );
        }
        // Cells decode against the restored symbol table bit-for-bit.
        assert_eq!(
            restored.symbols().try_encode(&Value::str("y")),
            db.symbols().try_encode(&Value::str("y"))
        );
        assert_eq!(
            restored.symbols().try_encode(&Value::int(i64::MAX)),
            db.symbols().try_encode(&Value::int(i64::MAX))
        );
    }

    #[test]
    fn every_truncation_of_a_snapshot_fails_to_decode() {
        let (_, db) = sample_db();
        let bytes = encode_snapshot(&db, 7);
        for cut in 0..bytes.len() {
            assert!(
                decode_snapshot(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        assert!(decode_snapshot(&bytes).is_ok());
        // Corruption anywhere fails too (CRC or magic).
        for flip in [0, MAGIC.len() + 3, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[flip] ^= 0x10;
            assert!(decode_snapshot(&bad).is_err(), "flip at {flip} decoded");
        }
    }

    #[test]
    fn checkpoint_cuts_the_log_and_keeps_only_the_newest_snapshot() {
        let (_, mut db) = sample_db();
        let log = Arc::new(MemLog::new());
        let writer = Arc::new(WalWriter::new(
            log.clone(),
            crate::writer::SyncPolicy::Manual,
            1,
        ));
        db.set_wal(Some(writer.clone()));
        let mut names = Vec::new();
        for i in 0..3 {
            db.insert("s", &[Value::int(100 + i)]).unwrap();
            let (name, written) = checkpoint(&writer, &db).unwrap();
            assert_eq!(name, snapshot_name(writer.last_seq()));
            assert_eq!(written, log.read_blob(&name).unwrap().unwrap().len() as u64);
            assert_eq!(log.list_blobs().unwrap(), vec![name.clone()]);
            assert!(log.read().unwrap().is_empty());
            names.push(name);
        }
        // Nothing logged since: the same snapshot, not rewritten.
        let syncs = log.syncs();
        assert_eq!(checkpoint(&writer, &db).unwrap(), (names[2].clone(), 0));
        assert_eq!(log.syncs(), syncs + 1, "only the log sync ran");
    }
}
