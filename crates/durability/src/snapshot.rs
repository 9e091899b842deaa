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
//! The blob is streamed both ways and never exists as one byte buffer.
//! [`write_snapshot`] encodes each table's cells straight into the blob's
//! sink through one fixed-size chunk and a running CRC, then patches the
//! frame header. [`read_snapshot`] parses the blob from its reader
//! straight into each relation's flat cell vector, which
//! `Database::restore` adopts as the table; no count from the header sizes
//! an allocation beyond the frame bytes still unread, and the CRC is
//! checked before any index is built.
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

use crate::frame::{Crc32, FRAME_HEADER};
use crate::storage::{BlobSink, LogStorage};
use crate::writer::WalWriter;
use bcq_core::prelude::{Catalog, Cell, RelId, SymbolTable, Value};
use bcq_storage::{Database, ShardState};
use std::io::{self, Read, SeekFrom};
use std::sync::Arc;

/// Blob-name prefix for snapshots; the suffix is the zero-padded covered
/// sequence number, so lexicographic order is chronological order.
pub const SNAP_PREFIX: &str = "snap-";

/// Magic bytes leading every snapshot blob.
const MAGIC: &[u8; 8] = b"BCQSNAP1";

/// Bytes a snapshot is written and read in: the only buffer either side
/// holds beside the database.
const CHUNK: usize = 64 * 1024;

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

/// The payload side of a snapshot being written: bytes gather in one
/// [`CHUNK`]-sized buffer and go to the sink through the running CRC.
struct PayloadWriter<'a> {
    sink: &'a mut dyn BlobSink,
    buf: Vec<u8>,
    crc: Crc32,
    len: u64,
}

impl PayloadWriter<'_> {
    fn put(&mut self, bytes: &[u8]) -> io::Result<()> {
        if self.buf.len() + bytes.len() > CHUNK {
            self.flush()?;
        }
        if bytes.len() > CHUNK {
            self.crc.update(bytes);
            self.len += bytes.len() as u64;
            return self.sink.write_all(bytes);
        }
        self.buf.extend_from_slice(bytes);
        Ok(())
    }

    fn u32(&mut self, v: usize) -> io::Result<()> {
        let v = u32::try_from(v).map_err(|_| invalid(format!("count {v} overflows u32")))?;
        self.put(&v.to_le_bytes())
    }

    fn u64(&mut self, v: u64) -> io::Result<()> {
        self.put(&v.to_le_bytes())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.crc.update(&self.buf);
        self.len += self.buf.len() as u64;
        self.sink.write_all(&self.buf)?;
        self.buf.clear();
        Ok(())
    }
}

/// Streams `db` (committed through `last_seq`) into `sink` as a snapshot
/// blob, returning its length in bytes. The magic and a placeholder frame
/// header go first; the payload follows through one chunk buffer and the
/// running CRC, read straight from each table's cells; then the header is
/// patched with the payload's length and CRC. The sink must be empty.
pub fn write_snapshot(sink: &mut dyn BlobSink, db: &Database, last_seq: u64) -> io::Result<u64> {
    sink.write_all(MAGIC)?;
    sink.write_all(&[0; FRAME_HEADER])?;
    let mut w = PayloadWriter {
        sink,
        buf: Vec::with_capacity(CHUNK),
        crc: Crc32::new(),
        len: 0,
    };
    w.u64(db.epoch())?;
    w.u64(last_seq)?;

    let symbols = db.symbols();
    w.u32(symbols.len())?;
    for s in symbols.strings() {
        w.u32(s.len())?;
        w.put(s.as_bytes())?;
    }
    w.u32(symbols.num_wide_ints())?;
    for &ws in symbols.wide_ints() {
        w.put(&ws.to_le_bytes())?;
    }

    w.u32(db.num_relations())?;
    for rel in 0..db.num_relations() {
        let shard = db.shard(RelId(rel));
        w.u64(shard.epoch())?;
        let table = shard.table();
        w.u64(table.len() as u64)?;
        w.u32(table.arity())?;
        for cell in table.cells() {
            w.u64(cell.raw())?;
        }
        w.u32(shard.index_specs().count())?;
        for (x, y) in shard.index_specs() {
            for cols in [x, y] {
                w.u32(cols.len())?;
                for &c in cols {
                    w.u32(c)?;
                }
            }
        }
    }
    w.flush()?;

    let (len, crc) = (w.len, w.crc.finish());
    let len = u32::try_from(len).map_err(|_| {
        invalid(format!(
            "snapshot payload of {len} bytes overflows its frame"
        ))
    })?;
    sink.seek(SeekFrom::Start(MAGIC.len() as u64))?;
    sink.write_all(&len.to_le_bytes())?;
    sink.write_all(&crc.to_le_bytes())?;
    Ok((MAGIC.len() + FRAME_HEADER) as u64 + u64::from(len))
}

/// An [`io::ErrorKind::InvalidData`] error: a damaged snapshot, or one
/// too large for its frame.
fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// `read_exact`, where a blob that ends before its stated length is
/// damage, not an I/O failure.
fn read_exact(reader: &mut dyn Read, buf: &mut [u8]) -> io::Result<()> {
    reader.read_exact(buf).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => invalid("snapshot blob shorter than its length"),
        _ => e,
    })
}

/// The payload side of a snapshot being read: every byte passes through
/// the running CRC, and no read reaches past the frame.
struct PayloadReader<'a> {
    inner: &'a mut dyn Read,
    /// Frame bytes not yet read.
    left: u64,
    crc: Crc32,
}

impl PayloadReader<'_> {
    fn fill(&mut self, buf: &mut [u8]) -> io::Result<()> {
        if buf.len() as u64 > self.left {
            return Err(invalid("snapshot payload ends early"));
        }
        read_exact(self.inner, buf)?;
        self.crc.update(buf);
        self.left -= buf.len() as u64;
        Ok(())
    }

    fn u32(&mut self) -> io::Result<u32> {
        let mut b = [0; 4];
        self.fill(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self) -> io::Result<u64> {
        let mut b = [0; 8];
        self.fill(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Reads a `u32` count of items at least `width` bytes each; see
    /// [`PayloadReader::fits`].
    fn count(&mut self, width: u64, what: &str) -> io::Result<usize> {
        let n = self.u32()?;
        self.fits(u64::from(n), width, what)
    }

    /// `n` items at least `width` bytes each, refused unless the rest of
    /// the frame can hold them: no count from an unverified header sizes
    /// an allocation beyond the bytes still unread.
    fn fits(&self, n: u64, width: u64, what: &str) -> io::Result<usize> {
        match n.checked_mul(width) {
            Some(bytes) if bytes <= self.left => Ok(n as usize),
            _ => Err(invalid(format!(
                "snapshot claims {n} {what}, more than its frame holds"
            ))),
        }
    }
}

/// Parses a snapshot blob of `blob_len` bytes from `reader`, straight
/// into each relation's flat cell vector. Any damage — missing magic, a
/// frame length that disagrees with `blob_len` (a torn blob), a count the
/// frame cannot hold, a CRC mismatch, trailing bytes — is an
/// [`io::ErrorKind::InvalidData`] error, which recovery treats as "this
/// snapshot never happened" and falls back to an older one; other errors
/// are the reader's own. The CRC is checked before this returns, so
/// nothing of an unverified blob reaches [`restore_snapshot`].
pub fn read_snapshot(reader: &mut dyn Read, blob_len: u64) -> io::Result<DecodedSnapshot> {
    let head = (MAGIC.len() + FRAME_HEADER) as u64;
    if blob_len < head {
        return Err(invalid("snapshot header torn"));
    }
    let mut header = [0; MAGIC.len() + FRAME_HEADER];
    read_exact(reader, &mut header)?;
    if &header[..MAGIC.len()] != MAGIC {
        return Err(invalid("snapshot magic missing"));
    }
    let len = u32::from_le_bytes(header[8..12].try_into().unwrap());
    let crc = u32::from_le_bytes(header[12..16].try_into().unwrap());
    if head + u64::from(len) != blob_len {
        return Err(invalid(format!(
            "snapshot frame of {len} bytes disagrees with a blob of {blob_len}"
        )));
    }
    let mut r = PayloadReader {
        inner: reader,
        left: u64::from(len),
        crc: Crc32::new(),
    };
    let commit = r.u64()?;
    let last_seq = r.u64()?;

    let mut symbols = SymbolTable::new();
    let nstrings = r.count(4, "strings")?;
    let mut text = Vec::new();
    for _ in 0..nstrings {
        let n = r.count(1, "string bytes")?;
        text.resize(n, 0);
        r.fill(&mut text)?;
        let s =
            std::str::from_utf8(&text).map_err(|e| invalid(format!("symbol not UTF-8: {e}")))?;
        symbols.intern(s);
    }
    let nwide = r.count(8, "wide ints")?;
    for _ in 0..nwide {
        let w = r.u64()? as i64;
        // Wide ints re-enter the pool through the encode path; pool order
        // equals dump order, so indices match the snapshotted cells.
        symbols.encode(&Value::Int(w));
    }
    if symbols.num_wide_ints() != nwide {
        return Err(invalid("wide-int dump contained a small int"));
    }

    // Epoch, row count, arity and index count each.
    let nshards = r.count(24, "relations")?;
    let mut shards = Vec::with_capacity(nshards);
    let mut chunk = vec![0; CHUNK];
    for _ in 0..nshards {
        let epoch = r.u64()?;
        let nrows = r.u64()?;
        let arity = r.u32()?;
        let ncells = nrows
            .checked_mul(u64::from(arity))
            .ok_or_else(|| invalid(format!("{nrows} rows of width {arity} overflow")))?;
        let ncells = r.fits(ncells, 8, "cells")?;
        let mut cells = Vec::with_capacity(ncells);
        while cells.len() < ncells {
            let bytes = &mut chunk[..(ncells - cells.len()).min(CHUNK / 8) * 8];
            r.fill(bytes)?;
            for word in bytes.chunks_exact(8) {
                let raw = u64::from_le_bytes(word.try_into().unwrap());
                let cell = Cell::from_raw(raw)
                    .ok_or_else(|| invalid(format!("invalid cell word {raw:#x}")))?;
                cells.push(cell);
            }
        }
        // Two column counts each.
        let nindexes = r.count(8, "indices")?;
        let mut indexes = Vec::with_capacity(nindexes);
        for _ in 0..nindexes {
            let mut xy = [Vec::new(), Vec::new()];
            for cols in &mut xy {
                for _ in 0..r.count(4, "columns")? {
                    cols.push(r.u32()? as usize);
                }
            }
            let [x, y] = xy;
            indexes.push((x, y));
        }
        shards.push(ShardState {
            epoch,
            arity: arity as usize,
            cells,
            indexes,
        });
    }
    if r.left != 0 {
        return Err(invalid("snapshot has trailing bytes"));
    }
    if r.crc.finish() != crc {
        return Err(invalid("snapshot CRC mismatch"));
    }
    Ok(DecodedSnapshot {
        commit,
        last_seq,
        symbols,
        shards,
    })
}

/// Restores a database from a decoded snapshot against `catalog`,
/// refusing what log replay would refuse: a width that is not the
/// catalog's, a cell naming an id the snapshot's own symbol table lacks,
/// an index column past the width ([`Database::restore`]). Recovery
/// treats a refusal like a blob that does not decode.
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
/// holding its bulk gate exclusively: every record is appended by a holder
/// of that gate (row writers share it, a bulk update holds it alone and
/// appends off the commit section), so while the checkpoint holds it
/// `last_seq` cannot move and the published state is the logged one. A
/// `last_seq` that moved anyway is an error, returned before anything is
/// cut.
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
        storage.write_blob(&name, &mut |sink| {
            written = write_snapshot(sink, db, last_seq)?;
            Ok(())
        })?;
        storage.sync()?;
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
    use std::io::Cursor;

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

    /// The blob `write_snapshot` streams for `db`.
    fn encode(db: &Database, last_seq: u64) -> Vec<u8> {
        let mut sink = Cursor::new(Vec::new());
        let len = write_snapshot(&mut sink, db, last_seq).unwrap();
        let bytes = sink.into_inner();
        assert_eq!(len, bytes.len() as u64);
        bytes
    }

    fn decode(bytes: &[u8]) -> io::Result<DecodedSnapshot> {
        read_snapshot(&mut Cursor::new(bytes), bytes.len() as u64)
    }

    /// `sample_db()`'s snapshot at seq 42, as the byte-slice encoder that
    /// preceded the streamed one wrote it.
    const PINNED_SAMPLE_BLOB: &str = "\
        424351534e41503196000000c132617404000000000000002a000000000000000200000001000000\
        78010000007901000000ffffffffffffff7f02000000040000000000000002000000000000000200\
        0000020000000000000009000000000000000a000000000000000400000000000000010000000100\
        00000000000001000000010000000300000000000000010000000000000001000000390000000000\
        000000000000";

    #[test]
    fn the_streamed_blob_is_byte_identical_to_the_pinned_format() {
        let (cat, db) = sample_db();
        let hex: String = encode(&db, 42).iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, PINNED_SAMPLE_BLOB);
        // So a blob written before the codec streamed still restores.
        let pinned: Vec<u8> = (0..PINNED_SAMPLE_BLOB.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&PINNED_SAMPLE_BLOB[i..i + 2], 16).unwrap())
            .collect();
        let restored = restore_snapshot(cat, decode(&pinned).unwrap()).unwrap();
        assert_eq!(
            restored.value_rows(RelId(0)).collect::<Vec<_>>(),
            db.value_rows(RelId(0)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn snapshot_roundtrips_rows_epochs_symbols_and_indexes() {
        let (cat, db) = sample_db();
        let bytes = encode(&db, 42);
        let snap = decode(&bytes).unwrap();
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
    fn a_snapshot_larger_than_a_chunk_roundtrips() {
        let cat = Catalog::from_names(&[("r", &["a", "b", "c"])]).unwrap();
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
        let bytes = encode(&db, 3);
        assert!(bytes.len() > 4 * CHUNK);
        let restored = restore_snapshot(cat, decode(&bytes).unwrap()).unwrap();
        assert_eq!(
            restored.value_rows(RelId(0)).collect::<Vec<_>>(),
            db.value_rows(RelId(0)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn every_truncation_of_a_snapshot_fails_to_decode() {
        let (_, db) = sample_db();
        let bytes = encode(&db, 7);
        for cut in 0..bytes.len() {
            assert!(
                decode(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        assert!(decode(&bytes).is_ok());
        // Corruption anywhere fails too (CRC or magic).
        for flip in [0, MAGIC.len() + 3, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[flip] ^= 0x10;
            assert!(decode(&bad).is_err(), "flip at {flip} decoded");
        }
    }

    /// Where the payload starts, after the magic and the frame header.
    const PAYLOAD: usize = MAGIC.len() + FRAME_HEADER;

    /// Where relation 0's row count sits in `sample_db()`'s blob.
    fn row_count_at(bytes: &[u8]) -> usize {
        // commit, last_seq, 2 strings ("x", "y"), 1 wide int, relation
        // count, then relation 0's epoch.
        let strings = 4 + (4 + 1) * 2;
        let wides = 4 + 8;
        let at = PAYLOAD + 16 + strings + wides + 4 + 8;
        assert_eq!(
            &bytes[at..at + 8],
            &2u64.to_le_bytes(),
            "relation 0 has 2 rows"
        );
        at
    }

    #[test]
    fn header_counts_are_refused_before_they_size_an_allocation() {
        let (_, db) = sample_db();
        let bytes = encode(&db, 7);
        let patched = |at: usize, field: &[u8]| {
            let mut bad = bytes.clone();
            bad[at..at + field.len()].copy_from_slice(field);
            decode(&bad).unwrap_err()
        };
        let rows = row_count_at(&bytes);
        for (what, err) in [
            (
                "a row count of 2^40",
                patched(rows, &(1u64 << 40).to_le_bytes()),
            ),
            (
                "rows × arity overflowing",
                patched(rows, &(u64::MAX / 2 + 1).to_le_bytes()),
            ),
            // The first string's length.
            (
                "a string of u32::MAX bytes",
                patched(PAYLOAD + 20, &u32::MAX.to_le_bytes()),
            ),
        ] {
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
        }
        // A frame length that disagrees with the blob's, either way.
        for len in [
            bytes.len() - PAYLOAD - 1,
            bytes.len() - PAYLOAD + 1,
            u32::MAX as usize,
        ] {
            let err = patched(MAGIC.len(), &(len as u32).to_le_bytes());
            assert!(err.to_string().contains("disagrees"), "{len}: {err}");
        }
        // The same blob read as if it were longer or shorter.
        for blob_len in [bytes.len() as u64 - 1, bytes.len() as u64 + 1] {
            let err = read_snapshot(&mut Cursor::new(&bytes), blob_len).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{blob_len}: {err}");
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
            assert_eq!(written, log.read_blob(&name).unwrap().unwrap().1);
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
