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
//! 3. **Replay.** The kept run is re-applied through the storage engine's
//!    own replay — [`Database::replay`] per record, the inverse of its
//!    emission — which applies each record's cells as logged against a
//!    symbol table the intern records rebuild in id order, so rows,
//!    indices and epochs come back bit-identical with nothing decoded to
//!    values on the way. It holds every record to its relation, its width,
//!    the ids its cells name and its commit stamp. A run of index records
//!    is one [`Database::replay_indexes`] batch. A bulk load replays only
//!    if its closing `BulkEnd` made it to the log: until then its records
//!    stay payload slices of the log bytes already read, and at the end
//!    [`Database::replay_bulk`] reserves the load's rows and its records
//!    are decoded and applied in logged order; an open bulk at the tail is
//!    torn and discarded whole, its interns never reaching the symbol
//!    table.
//! 4. **Truncate.** The log is cut back to the last kept record, so the
//!    discarded suffix can never resurface and a writer restarted at
//!    `last_seq + 1` never collides. With no kept record past the snapshot
//!    it is cut to 0 — the snapshot covers it, and a checkpoint that
//!    crashed before its cut left it behind — and every snapshot but the
//!    restored one is deleted, so recovery finishes an interrupted
//!    checkpoint and leaves one copy of the data. This is also what makes
//!    recovery idempotent: recovering twice equals recovering once.

use crate::frame::{decode_frames, FrameError};
use crate::record::{decode_op, DecodeScratch};
use crate::snapshot::{read_snapshot, restore_snapshot, snapshots};
use crate::storage::LogStorage;
use bcq_core::prelude::{Catalog, RelId};
use bcq_storage::{Database, WalOp};
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

/// A bulk load whose `BulkEnd` has not been read yet. Its records are
/// the frames after its begin, left in the log bytes until the end proves
/// the load complete: a torn load must not touch the database.
struct PendingBulk {
    rel: RelId,
    commit: u64,
    /// Index of its `BulkBegin` frame.
    begin: usize,
    /// Cells over all its chunks, whose rows are reserved up front.
    cells: usize,
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
                restore_snapshot(catalog.clone(), snap).map(|db| (db, seq))
            }
            Err(e) if e.kind() == io::ErrorKind::InvalidData => Err(e.to_string()),
            Err(e) => return Err(e.into()),
        };
        match restored {
            Ok((restored_db, seq)) => {
                db = Some(restored_db);
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

    // 2. Decode the log; its records are in sequence order. Every frame
    // must parse, whether or not it replays.
    let bytes = storage.read()?;
    let decoded = decode_frames(&bytes)
        .map_err(|FrameError::Corrupt { offset }| RecoverError::Corrupt { offset })?;
    report.torn_bytes = decoded.torn_bytes as u64;
    let frames = decoded.frames;
    let mut scratch = DecodeScratch::default();
    let mut seqs = Vec::with_capacity(frames.len());
    for frame in &frames {
        seqs.push(decode(frame, &mut scratch)?.0);
    }

    // The in-order run: past the records the snapshot folded in, up to the
    // first number that is not the next one — a gap, a repeat or a step
    // back — beyond which nothing is trustworthy.
    let first = seqs
        .iter()
        .position(|&seq| seq > snap_seq)
        .unwrap_or(seqs.len());
    let run_len = seqs[first..]
        .iter()
        .zip(snap_seq + 1..)
        .take_while(|(seq, next)| *seq == next)
        .count();
    let run = first..first + run_len;

    // 3. Replay, buffering bulk loads until their end record.
    let at = |seq: u64| move |e| RecoverError::Replay(format!("record at seq {seq}: {e}"));
    let mut pending: Option<PendingBulk> = None;
    // The first frame an index batch has not taken.
    let mut next = run.start;
    for i in run.clone() {
        if i < next {
            continue;
        }
        next = i + 1;
        let (seq, op) = decode(&frames[i], &mut scratch)?;
        if let Some(bulk) = &mut pending {
            match op {
                WalOp::InternStr { .. } | WalOp::InternWide { .. } => {}
                WalOp::BulkChunk { rel, cells, .. } if rel == bulk.rel => bulk.cells += cells.len(),
                WalOp::BulkEnd { rel } if rel == bulk.rel => {
                    let bulk = pending.take().unwrap();
                    let mut loader = db
                        .replay_bulk(bulk.commit, bulk.rel, bulk.cells)
                        .map_err(at(seqs[bulk.begin]))?;
                    for frame in &frames[bulk.begin + 1..i] {
                        let (seq, op) = decode(frame, &mut scratch)?;
                        loader.replay(op).map_err(at(seq))?;
                    }
                }
                other => {
                    return Err(RecoverError::Replay(format!(
                        "{other} at seq {seq} inside the open bulk load of relation {}",
                        bulk.rel.0
                    )))
                }
            }
            continue;
        }
        match op {
            WalOp::BulkBegin { commit, rel } => {
                pending = Some(PendingBulk {
                    rel,
                    commit,
                    begin: i,
                    cells: 0,
                });
            }
            WalOp::EnsureIndex { .. } => {
                // The run of index records starting here (a load's
                // `build_indexes` logs one per index) is one batch, so its
                // builds share every core; each record is still held to
                // its own commit stamp.
                let mut logged = Vec::new();
                for frame in &frames[i..run.end] {
                    let (_, WalOp::EnsureIndex { commit, rel, x, y }) =
                        decode(frame, &mut scratch)?
                    else {
                        break;
                    };
                    logged.push((commit, rel, x.to_vec(), y.to_vec()));
                }
                next = i + logged.len();
                let batch: Vec<_> = logged
                    .iter()
                    .map(|(commit, rel, x, y)| (*commit, (*rel, x.as_slice(), y.as_slice())))
                    .collect();
                db.replay_indexes(&batch).map_err(|e| {
                    let last = seq + batch.len() as u64 - 1;
                    RecoverError::Replay(format!("index records at seq {seq}..={last}: {e}"))
                })?;
            }
            WalOp::BulkChunk { .. } | WalOp::BulkEnd { .. } => {
                return Err(RecoverError::Replay(format!(
                    "bulk record at seq {seq} outside any bulk load"
                )))
            }
            op => db.replay(op).map_err(at(seq))?,
        }
    }
    // Every record of the run replayed but a bulk load still open at its
    // end: that load never logged its end record, so it is torn, and
    // everything from its begin record on is discarded (its buffered
    // records were never applied).
    let applied_through = match pending {
        Some(bulk) => seqs[bulk.begin] - 1,
        None => snap_seq + run_len as u64,
    };

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
    report.discarded = (frames.len() - first - kept) as u64;

    // 4. Truncate the log behind its last kept record past the snapshot —
    // to 0 when it has none — then drop every other snapshot.
    let keep = kept.checked_sub(1).map_or(0, |last| frames[first + last].1);
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

/// Decodes one frame's record, a failure reported at the frame's offset.
fn decode<'a>(
    &(start, _, payload): &(usize, usize, &'a [u8]),
    scratch: &'a mut DecodeScratch,
) -> Result<(u64, WalOp<'a>), RecoverError> {
    decode_op(payload, scratch).map_err(|msg| RecoverError::Record { offset: start, msg })
}
