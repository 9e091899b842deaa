//! Crash recovery: latest usable snapshot + log replay to a consistent
//! epoch vector.
//!
//! Recovery proceeds in four steps:
//!
//! 1. **Snapshot.** Snapshot blobs are tried newest-first; a torn or
//!    corrupt blob is skipped (that is what a crash mid-checkpoint leaves
//!    behind) and the previous one is used, falling back to an empty
//!    database when none decodes. The snapshot fixes the replay start:
//!    records with sequence numbers ≤ its `last_seq` are already folded in.
//!    A skipped `snap-<s>` is only survivable while the log still holds
//!    the records up to `s`: a checkpoint cuts the log only after its
//!    snapshot is durable, so a snapshot torn mid-write never had its cut.
//!    If the replayable run stops short of `s`, the log was cut behind that
//!    snapshot and recovery refuses with [`RecoverError::SnapshotUnreadable`]
//!    — changing nothing — rather than return a prefix of the history.
//! 2. **Decode.** The log is split into intact frames — a torn tail
//!    dropped, a CRC mismatch loudly fatal — whose records are already in
//!    sequence order. The replayable history is the **in-order run**: the
//!    records after the snapshot boundary up to the first whose number is
//!    not the next one. A skipped number means every later record may
//!    depend on un-synced state, and a repeat or a step back can only be
//!    damage, so everything from there on is discarded.
//! 3. **Replay.** The kept run is re-applied through the public
//!    [`Database`] API. A side symbol table (snapshot dump + intern
//!    records) decodes each record's raw cell words back to values; the
//!    replaying database re-interns them in the original emission order,
//!    so the rebuilt cells — and therefore rows, indices, and epochs — are
//!    bit-identical. Each commit-bearing record asserts the database
//!    arrived at exactly its commit stamp. A bulk load replays only if its
//!    closing [`RecordBody::BulkEnd`] made it to the log — each buffered
//!    chunk then goes back through `BulkLoader::push_rows` as the flat
//!    values it decoded to; an open bulk at the tail is torn and discarded
//!    whole.
//! 4. **Truncate.** The log is cut back to the last kept record, so the
//!    discarded suffix can never resurface and a writer restarted at
//!    `last_seq + 1` never collides. With no kept record past the snapshot
//!    it is cut to 0 — the snapshot covers it, and a checkpoint that
//!    crashed before its cut left it behind — and every snapshot but the
//!    restored one is deleted, so recovery finishes an interrupted
//!    checkpoint and leaves one copy of the data. This is also what makes
//!    recovery idempotent: recovering twice equals recovering once.

use crate::frame::{decode_frames, FrameError};
use crate::record::{RecordBody, WalRecord};
use crate::snapshot::{read_snapshot, restore_snapshot, snapshots};
use crate::storage::LogStorage;
use bcq_core::prelude::{Catalog, Cell, CellKind, RelId, SymbolTable, Value};
use bcq_storage::Database;
use std::io;
use std::sync::Arc;

/// Why recovery refused to produce a database.
#[derive(Debug)]
pub enum RecoverError {
    /// The log storage failed.
    Io(io::Error),
    /// A fully-present record failed its CRC — stored bytes changed, which
    /// a crash cannot do, so replaying would mean replaying garbage.
    Corrupt {
        /// Byte offset of the record's frame header within the log.
        offset: usize,
    },
    /// A frame passed its CRC but its payload does not parse (codec bug or
    /// version skew) — never silently skippable.
    Record {
        /// Byte offset of the record's frame header within the log.
        offset: usize,
        /// Decoder diagnostic.
        msg: String,
    },
    /// The kept run does not replay cleanly (out-of-contract log, e.g. a
    /// logged delete that misses, or a commit-stamp mismatch).
    Replay(String),
    /// A snapshot does not decode and the log no longer reaches the
    /// sequence number it covers — a checkpoint cut the log behind it — so
    /// any database recovery could build would silently miss committed
    /// history. Nothing was truncated or deleted.
    SnapshotUnreadable {
        /// The blob that failed to decode.
        snapshot: String,
        /// The last sequence number it covers.
        last_seq: u64,
    },
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::Io(e) => write!(f, "log storage I/O: {e}"),
            RecoverError::Corrupt { offset } => {
                write!(f, "log: CRC mismatch at byte offset {offset}")
            }
            RecoverError::Record { offset, msg } => {
                write!(f, "log: unparseable record at byte offset {offset}: {msg}")
            }
            RecoverError::Replay(msg) => write!(f, "replay diverged: {msg}"),
            RecoverError::SnapshotUnreadable { snapshot, last_seq } => write!(
                f,
                "snapshot `{snapshot}` does not decode and the log was cut behind it \
                 (through seq {last_seq}): refusing to recover a prefix of the history"
            ),
        }
    }
}

impl std::error::Error for RecoverError {}

impl From<io::Error> for RecoverError {
    fn from(e: io::Error) -> Self {
        RecoverError::Io(e)
    }
}

/// What recovery did, for logs and telemetry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Name of the snapshot blob restored from, if any.
    pub snapshot: Option<String>,
    /// Size of that blob in bytes (0 without one).
    pub snapshot_bytes: u64,
    /// Newer snapshot blobs skipped because they were torn or corrupt.
    pub snapshots_skipped: usize,
    /// Log bytes recovery read and kept: the tail past the snapshot that
    /// the reopened log holds. On a log that was closed cleanly this is
    /// every byte it read; torn, discarded and snapshot-covered bytes it
    /// cut away are not counted.
    pub log_bytes: u64,
    /// Records re-applied from the log (op, intern, and bulk records).
    pub replayed: u64,
    /// Records discarded: from the first out-of-order sequence number on,
    /// or part of a torn bulk.
    pub discarded: u64,
    /// Torn tail bytes dropped from the log.
    pub torn_bytes: u64,
    /// Highest durable sequence number after recovery; a new writer starts
    /// at `last_seq + 1`.
    pub last_seq: u64,
    /// Whether the log was truncated to cut the discarded suffix.
    pub truncated: bool,
}

/// A record staged for replay: where it ends, so the log can be
/// truncated behind it.
#[derive(Debug)]
struct Staged {
    end_offset: usize,
    record: WalRecord,
}

/// An in-flight bulk load being buffered until its `BulkEnd` proves it
/// complete. Interns are buffered alongside the chunks: a torn bulk is
/// discarded whole, and its intern records are truncated away with it, so
/// they must not leak into the recovered database's symbol table (a later
/// writer would then skip re-logging them).
struct PendingBulk {
    rel: u32,
    commit: u64,
    begin_seq: u64,
    /// One entry per chunk record: its rows' values, flat row-major.
    chunks: Vec<Vec<Value>>,
    interns: Vec<Intern>,
}

/// One buffered intern record of an in-flight bulk load.
enum Intern {
    Str(String),
    Wide(i64),
}

/// Recovers a database from `storage` (see the [module docs](self)).
pub fn recover(
    storage: &dyn LogStorage,
    catalog: Arc<Catalog>,
) -> Result<(Database, RecoveryReport), RecoverError> {
    let mut report = RecoveryReport::default();

    // 1. Newest usable snapshot, else empty database.
    let snaps = snapshots(storage)?;
    let mut db = None;
    let mut side = SymbolTable::new();
    let mut snap_seq = 0;
    // Newer blobs that did not decode, newest first.
    let mut skipped = Vec::new();
    for (name_seq, name) in snaps.iter().rev() {
        let Some((mut reader, blob_len)) = storage.read_blob(name)? else {
            continue;
        };
        // Damage skips the blob; a failing device fails recovery.
        let restored = match read_snapshot(&mut reader, blob_len) {
            Ok(snap) => {
                let seq = snap.last_seq;
                let symbols = snap.symbols.clone();
                restore_snapshot(catalog.clone(), snap).map(|db| (db, symbols, seq))
            }
            Err(e) if e.kind() == io::ErrorKind::InvalidData => Err(e.to_string()),
            Err(e) => return Err(e.into()),
        };
        match restored {
            Ok((restored_db, symbols, seq)) => {
                db = Some(restored_db);
                side = symbols;
                snap_seq = seq;
                report.snapshot = Some(name.clone());
                report.snapshot_bytes = blob_len;
                break;
            }
            Err(_) => skipped.push((*name_seq, name)),
        }
    }
    report.snapshots_skipped = skipped.len();
    let mut db = db.unwrap_or_else(|| Database::new(catalog.clone()));

    // 2. Decode the log; its records are in sequence order.
    let bytes = storage.read()?;
    let decoded = decode_frames(&bytes)
        .map_err(|FrameError::Corrupt { offset }| RecoverError::Corrupt { offset })?;
    report.torn_bytes = decoded.torn_bytes as u64;
    let mut staged = Vec::with_capacity(decoded.frames.len());
    for (start, end, payload) in decoded.frames {
        let record = WalRecord::decode(payload)
            .map_err(|msg| RecoverError::Record { offset: start, msg })?;
        staged.push(Staged {
            end_offset: end,
            record,
        });
    }

    // The in-order run: past the records the snapshot folded in, up to the
    // first number that is not the next one — a gap, a repeat or a step
    // back — beyond which nothing is trustworthy.
    let first = staged
        .iter()
        .position(|s| s.record.seq > snap_seq)
        .unwrap_or(staged.len());
    let run_len = staged[first..]
        .iter()
        .zip(snap_seq + 1..)
        .take_while(|(s, next)| s.record.seq == *next)
        .count();
    let run = &staged[first..first + run_len];

    // 3. Replay, buffering bulk loads until their end record.
    let cat = db.catalog().clone();
    let mut pending: Option<PendingBulk> = None;
    let mut applied_through = snap_seq;
    let mut rest = run;
    while let Some((s, after)) = rest.split_first() {
        rest = after;
        let seq = s.record.seq;
        if let Some(bulk) = &mut pending {
            match &s.record.body {
                RecordBody::InternStr { id, text } => {
                    check_intern_str(&mut side, *id, text)?;
                    bulk.interns.push(Intern::Str(text.clone()));
                }
                RecordBody::InternWide { id, value } => {
                    check_intern_wide(&mut side, *id, *value)?;
                    bulk.interns.push(Intern::Wide(*value));
                }
                RecordBody::BulkChunk { rel, rows, cells } if *rel == bulk.rel => {
                    // A CRC-valid chunk of the wrong width must not reach
                    // the table's arity assertion.
                    let arity = cat.relation(RelId(*rel as usize)).arity();
                    if *rows == 0 || (*rows as usize).checked_mul(arity) != Some(cells.len()) {
                        return Err(RecoverError::Replay(format!(
                            "bulk chunk at seq {seq} for relation {rel}: expected {rows} rows \
                             of width {arity}, found {} cells",
                            cells.len()
                        )));
                    }
                    bulk.chunks.push(decode_cells(&side, cells, seq)?);
                }
                RecordBody::BulkEnd { rel } if *rel == bulk.rel => {
                    let bulk = pending.take().unwrap();
                    let rel = rel_id(&db, bulk.rel, seq)?;
                    // Fold the load's interns in first, in logged (id)
                    // order: the re-pushed rows then reuse the original
                    // symbol ids even though the bulk-ingest fast path
                    // interned them column-at-a-time.
                    for intern in &bulk.interns {
                        match intern {
                            Intern::Str(text) => db.replay_intern_str(text),
                            Intern::Wide(value) => db.replay_intern_wide(*value),
                        }
                    }
                    let mut loader = db.bulk_loader(rel);
                    for chunk in &bulk.chunks {
                        loader.push_rows(chunk);
                    }
                    drop(loader);
                    check_commit(db.epoch(), bulk.commit, seq)?;
                }
                other => {
                    return Err(RecoverError::Replay(format!(
                        "record {other:?} at seq {seq} inside open bulk load of rel {}",
                        bulk.rel
                    )))
                }
            }
            applied_through = seq;
            continue;
        }
        match &s.record.body {
            RecordBody::InternStr { id, text } => {
                check_intern_str(&mut side, *id, text)?;
                db.replay_intern_str(text);
            }
            RecordBody::InternWide { id, value } => {
                check_intern_wide(&mut side, *id, *value)?;
                db.replay_intern_wide(*value);
            }
            RecordBody::Insert { commit, rel, cells } => {
                let rel = rel_id(&db, *rel, seq)?;
                let row = decode_cells(&side, cells, seq)?;
                db.insert(cat.relation(rel).name(), &row)
                    .map_err(|e| RecoverError::Replay(format!("insert at seq {seq}: {e}")))?;
                check_commit(db.epoch(), *commit, seq)?;
            }
            RecordBody::Delete { commit, rel, cells } => {
                let rel = rel_id(&db, *rel, seq)?;
                let row = decode_cells(&side, cells, seq)?;
                let hit = db
                    .delete(cat.relation(rel).name(), &row)
                    .map_err(|e| RecoverError::Replay(format!("delete at seq {seq}: {e}")))?;
                if hit.is_none() {
                    return Err(RecoverError::Replay(format!(
                        "logged delete at seq {seq} found no row on replay"
                    )));
                }
                check_commit(db.epoch(), *commit, seq)?;
            }
            RecordBody::BulkBegin { commit, rel } => {
                rel_id(&db, *rel, seq)?;
                pending = Some(PendingBulk {
                    rel: *rel,
                    commit: *commit,
                    begin_seq: seq,
                    chunks: Vec::new(),
                    interns: Vec::new(),
                });
            }
            RecordBody::BulkChunk { .. } | RecordBody::BulkEnd { .. } => {
                return Err(RecoverError::Replay(format!(
                    "bulk record at seq {seq} outside any bulk load"
                )));
            }
            RecordBody::EnsureIndex { .. } => {
                // The run of index records starting here (a load's
                // `build_indexes` logs one per index) is one batch, so its
                // builds share every core; each record is still held to
                // its own commit stamp.
                let mut specs = Vec::new();
                let mut stamps = Vec::new();
                for s in std::iter::once(s).chain(after) {
                    let RecordBody::EnsureIndex { commit, rel, x, y } = &s.record.body else {
                        break;
                    };
                    let widen = |cols: &[u32]| cols.iter().map(|&c| c as usize).collect();
                    let (x, y): (Vec<usize>, Vec<usize>) = (widen(x), widen(y));
                    specs.push((rel_id(&db, *rel, s.record.seq)?, x, y));
                    stamps.push((*commit, s.record.seq));
                }
                let batch: Vec<_> = specs
                    .iter()
                    .map(|(rel, x, y)| (*rel, x.as_slice(), y.as_slice()))
                    .collect();
                let arrived = db.ensure_indexes_cols(&batch);
                for (arrived, (commit, seq)) in arrived.into_iter().zip(stamps) {
                    check_commit(arrived, commit, seq)?;
                    applied_through = seq;
                }
                rest = &after[batch.len() - 1..];
                continue;
            }
        }
        applied_through = seq;
    }
    // A bulk load still open at the end of the run never logged its end
    // record: it is torn, and everything from its begin record on is
    // discarded (the buffered rows were never applied).
    if let Some(bulk) = pending {
        applied_through = bulk.begin_seq - 1;
    }

    // A skipped snapshot the run does not reach had its log cut: refuse
    // before truncating or deleting anything.
    if let Some((last_seq, name)) = skipped.iter().find(|(seq, _)| *seq > applied_through) {
        return Err(RecoverError::SnapshotUnreadable {
            snapshot: name.to_string(),
            last_seq: *last_seq,
        });
    }

    let kept = (applied_through - snap_seq) as usize;
    report.last_seq = applied_through;
    report.replayed = kept as u64;
    report.discarded = (staged.len() - first - kept) as u64;

    // 4. Truncate the log behind its last kept record past the snapshot —
    // to 0 when it has none — then drop every other snapshot.
    let keep = kept.checked_sub(1).map_or(0, |last| run[last].end_offset);
    if keep < bytes.len() {
        storage.truncate(keep as u64)?;
        report.truncated = true;
    }
    report.log_bytes = keep as u64;
    for (_, name) in &snaps {
        if report.snapshot.as_ref() != Some(name) {
            storage.delete_blob(name)?;
        }
    }

    Ok((db, report))
}

/// Applies an intern record to the side table, checking the id matches the
/// replay contract (dense sequential assignment). The caller is
/// responsible for mirroring the intern into the replaying database —
/// immediately for committed records, or deferred through
/// [`PendingBulk::interns`] inside an open bulk load (whose records may
/// yet be discarded as torn).
fn check_intern_str(side: &mut SymbolTable, id: u32, text: &str) -> Result<(), RecoverError> {
    let got = side.intern(text);
    if got.0 != id {
        return Err(RecoverError::Replay(format!(
            "intern of {text:?} replayed to id {} but was logged as {id}",
            got.0
        )));
    }
    Ok(())
}

fn check_intern_wide(side: &mut SymbolTable, id: u32, value: i64) -> Result<(), RecoverError> {
    side.encode(&Value::Int(value));
    if side.wide_ints().get(id as usize) != Some(&value) {
        return Err(RecoverError::Replay(format!(
            "wide int {value} not at logged pool index {id} after replay"
        )));
    }
    Ok(())
}

/// Decodes a record's raw cell words against the side symbol table,
/// rejecting words the table cannot account for.
fn decode_cells(side: &SymbolTable, cells: &[u64], seq: u64) -> Result<Vec<Value>, RecoverError> {
    cells
        .iter()
        .map(|&raw| {
            let cell = Cell::from_raw(raw).ok_or_else(|| {
                RecoverError::Replay(format!("invalid cell word {raw:#x} at seq {seq}"))
            })?;
            let known = match cell.kind() {
                CellKind::Null | CellKind::SmallInt(_) => true,
                CellKind::Sym(sym) => (sym.0 as usize) < side.len(),
                CellKind::WideInt(ix) => (ix as usize) < side.num_wide_ints(),
            };
            if !known {
                return Err(RecoverError::Replay(format!(
                    "cell word {raw:#x} at seq {seq} references an id never interned"
                )));
            }
            Ok(side.decode(cell))
        })
        .collect()
}

fn rel_id(db: &Database, rel: u32, seq: u64) -> Result<RelId, RecoverError> {
    if (rel as usize) < db.num_relations() {
        Ok(RelId(rel as usize))
    } else {
        Err(RecoverError::Replay(format!(
            "record at seq {seq} names relation {rel}, catalog has {}",
            db.num_relations()
        )))
    }
}

fn check_commit(arrived: u64, commit: u64, seq: u64) -> Result<(), RecoverError> {
    if arrived == commit {
        Ok(())
    } else {
        Err(RecoverError::Replay(format!(
            "record at seq {seq} was stamped commit {commit}, replay arrived at {arrived}"
        )))
    }
}
