//! Crash recovery: one log, replayed as it streams, to a consistent
//! epoch vector.
//!
//! The log is read once, front to back, through a [`FrameReader`]: one
//! reused payload buffer, never the log as one byte buffer. Recovery
//! proceeds in four steps:
//!
//! 1. **Decode.** The log is split into intact frames — a torn tail
//!    dropped, a CRC mismatch loudly fatal — whose records are in
//!    sequence order. Every frame must parse, whether or not it replays.
//! 2. **The in-order run.** A log begins either with a checkpoint's
//!    compacted base, whose records are numbered from 0, or with a
//!    history numbered from 1 (see [`crate::checkpoint()`]). The
//!    replayable history is the **in-order run**: the records each
//!    numbered the next one, where the base's closing
//!    [`WalOp::Checkpoint`] record names the number after it. A skipped
//!    number means every later record may depend on un-synced state, and
//!    a repeat or a step back can only be damage, so everything from
//!    there on is discarded. A base is whole or refused: a run that ends
//!    inside it — cut, torn or gapped before its closing record — is
//!    refused with [`RecoverError::IncompleteBase`], changing nothing,
//!    since a prefix of a base is no state the store was ever in.
//! 3. **Replay.** The run is re-applied through the storage engine's own
//!    replay — [`Database::replay`] per record, the inverse of its
//!    emission — which applies each record's cells as logged against a
//!    symbol table the intern records rebuild in id order, so rows,
//!    indices and epochs come back bit-identical with nothing decoded to
//!    values on the way. It holds every record to its relation, its width,
//!    the ids its cells name and its commit stamp, and the closing record
//!    of a base sets the vector clock. A run of index records is one
//!    [`Database::replay_indexes`] batch. A bulk load replays only if its
//!    closing `BulkEnd` made it to the log: its frames are first read,
//!    checked and decoded through to the end, then read again from the
//!    load's first frame and applied through [`Database::replay_bulk`],
//!    which reserves the load's rows first; an open bulk at the run's end
//!    is torn and discarded whole, its interns never reaching the symbol
//!    table.
//! 4. **Truncate.** The log is cut back to the last kept record, so the
//!    discarded suffix can never resurface and a writer restarted at
//!    `last_seq + 1` never collides. This is also what makes recovery
//!    idempotent: recovering twice equals recovering once.

use crate::frame::{FrameError, FrameReader, FRAME_HEADER};
use crate::record::{decode_op, peek_bulk, BulkHead, DecodeScratch, BULK_HEAD};
use crate::storage::LogStorage;
use bcq_core::prelude::{Catalog, RelId};
use bcq_storage::{Database, IndexSpec, WalOp};
use std::io::{self, BufReader, Read};
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
    /// The log begins with a checkpoint's compacted base that ends before
    /// its closing record, so any database recovery could build would be
    /// part of a state, not one the store was ever in. Nothing was
    /// truncated.
    IncompleteBase {
        /// Byte offset where the base's in-order run breaks off.
        offset: usize,
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
            RecoverError::IncompleteBase { offset } => write!(
                f,
                "log: the checkpoint base breaks off at byte offset {offset} before its \
                 closing record: refusing to recover a part of it"
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

impl From<FrameError> for RecoverError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Corrupt { offset } => RecoverError::Corrupt { offset },
            FrameError::Io(e) => RecoverError::Io(e),
        }
    }
}

/// What recovery did, for logs and telemetry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Bytes of the checkpoint's compacted base the log begins with (0
    /// without one).
    pub snapshot_bytes: u64,
    /// Log bytes recovery read and kept past the base: the tail the
    /// reopened log holds after it. On a log that was closed cleanly this
    /// is every byte past the base; torn and discarded bytes it cut away
    /// are not counted.
    pub log_bytes: u64,
    /// Records re-applied past the base (op, intern, and bulk records).
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

/// The log as recovery reads it.
type Log<'a> = FrameReader<BufReader<Box<dyn crate::storage::SeekRead + 'a>>>;

/// One logged index record, held until its run is applied as a batch:
/// sequence number, commit stamp, relation and columns.
type LoggedIndex = (u64, u64, RelId, Vec<usize>, Vec<usize>);

/// Recovers a database from `storage` (see the [module docs](self)).
pub fn recover(
    storage: &dyn LogStorage,
    catalog: Arc<Catalog>,
) -> Result<(Database, RecoveryReport), RecoverError> {
    let (reader, len) = storage.read()?;
    let mut log: Log<'_> = FrameReader::new(BufReader::new(reader), len);
    let mut db = Database::new(catalog);
    let mut scratch = DecodeScratch::default();
    let mut indexes: Vec<LoggedIndex> = Vec::new();
    let at = |seq: u64| move |e| RecoverError::Replay(format!("record at seq {seq}: {e}"));

    // The number the next record of the run must carry; `None` until a
    // whole record was read.
    let mut next = None;
    let mut in_base = false;
    // The base's end offset and the last sequence number it covers.
    let (mut base_end, mut base_seq) = (0, 0);
    // The last record of the run so far: its number and end offset.
    let (mut last_seq, mut kept) = (0, 0);
    loop {
        let start = log.pos();
        let Some(payload) = log.next_frame()? else {
            break;
        };
        let (seq, op) = decode(start, payload, &mut scratch)?;
        // The first record fixes the numbering: 0 opens a base, anything
        // else a history from 1.
        if seq != next.unwrap_or(u64::from(seq != 0)) {
            break;
        }
        if next.is_none() {
            in_base = seq == 0;
        }
        if !matches!(op, WalOp::EnsureIndex { .. }) {
            apply_indexes(&mut db, &mut indexes)?;
        }
        last_seq = match op {
            WalOp::BulkBegin { commit, rel } => {
                let body = log.pos();
                let Some((cells, end_seq)) = check_bulk(&mut log, rel, seq, &mut scratch)? else {
                    break;
                };
                let mut loader = db.replay_bulk(commit, rel, cells).map_err(at(seq))?;
                // Every record of the load read again, its CRC checked,
                // decoded and applied; the end closes it.
                log.seek(body)?;
                for want in seq + 1..=end_seq {
                    let start = log.pos();
                    let payload = log.next_frame()?.ok_or_else(changed)?;
                    match decode(start, payload, &mut scratch)? {
                        (seq, WalOp::BulkEnd { rel: r }) if r == rel && seq == end_seq => {}
                        (seq, op) if seq == want && seq < end_seq => {
                            loader.replay(op).map_err(at(seq))?
                        }
                        _ => return Err(changed().into()),
                    }
                }
                end_seq
            }
            WalOp::EnsureIndex { commit, rel, x, y } => {
                indexes.push((seq, commit, rel, x.to_vec(), y.to_vec()));
                seq
            }
            WalOp::Checkpoint {
                last_seq: covered, ..
            } if in_base => {
                db.replay(op).map_err(at(seq))?;
                in_base = false;
                (base_end, base_seq) = (log.pos(), covered);
                covered
            }
            WalOp::Checkpoint { .. } => {
                return Err(RecoverError::Replay(format!(
                    "checkpoint record at seq {seq} outside a compacted base"
                )))
            }
            WalOp::BulkChunk { .. } | WalOp::BulkEnd { .. } => {
                return Err(RecoverError::Replay(format!(
                    "bulk record at seq {seq} outside any bulk load"
                )))
            }
            op => {
                db.replay(op).map_err(at(seq))?;
                seq
            }
        };
        next = Some(last_seq.checked_add(1).ok_or_else(|| {
            RecoverError::Replay(format!("record at seq {seq}: no sequence number follows"))
        })?);
        kept = log.pos();
    }
    apply_indexes(&mut db, &mut indexes)?;

    // Everything past the run is discarded, but must still parse.
    log.seek(kept)?;
    let mut discarded = 0;
    loop {
        let start = log.pos();
        let Some(payload) = log.next_frame()? else {
            break;
        };
        decode(start, payload, &mut scratch)?;
        discarded += 1;
    }
    let torn_bytes = log.torn_bytes();
    drop(log);
    if in_base || (next.is_none() && torn_base(storage)?) {
        return Err(RecoverError::IncompleteBase {
            offset: kept as usize,
        });
    }

    // Cut the log behind its last kept record.
    let truncated = kept < len;
    if truncated {
        storage.truncate(kept)?;
    }
    let report = RecoveryReport {
        snapshot_bytes: base_end,
        log_bytes: kept - base_end,
        replayed: last_seq - base_seq,
        discarded,
        torn_bytes,
        last_seq,
        truncated,
    };
    Ok((db, report))
}

/// Finds the end of a bulk load whose `BulkBegin` (numbered `seq`, for
/// `rel`) was just read, without applying any of it: returns the cells
/// its chunks hold and the number of its `BulkEnd` — or `None` when the
/// run ends first, which tears the load.
///
/// A load whose records are all its own is found by their heads alone,
/// read unverified: the pass that applies it checks every CRC and decodes
/// every record, so this one need not. Anything else — a torn or cut
/// load, a record out of place, damage — is judged on the records read
/// again whole: each CRC-checked, decoded and held to the run and to the
/// load.
fn check_bulk(
    log: &mut Log<'_>,
    rel: RelId,
    seq: u64,
    scratch: &mut DecodeScratch,
) -> Result<Option<(usize, u64)>, RecoverError> {
    let body = log.pos();
    let (mut cells, mut last) = (0, seq);
    while let Some((head, len)) = log.peek(BULK_HEAD)? {
        let Some((next, head)) =
            peek_bulk(head).filter(|&(next, _)| last.checked_add(1) == Some(next))
        else {
            break;
        };
        match head {
            BulkHead::Intern => {}
            // A count past the frame's bytes is damage the apply pass
            // refuses; it never sizes the reservation beyond them.
            BulkHead::Chunk { rel: r, cells: c } if r == rel => cells += c.min(len as usize / 8),
            BulkHead::End { rel: r } if r == rel => return Ok(Some((cells, next))),
            _ => break,
        }
        last = next;
    }

    log.seek(body)?;
    let (mut cells, mut last) = (0, seq);
    loop {
        let start = log.pos();
        let Some(payload) = log.next_frame()? else {
            return Ok(None);
        };
        let (next, op) = decode(start, payload, scratch)?;
        if last.checked_add(1) != Some(next) {
            return Ok(None);
        }
        last = next;
        match op {
            WalOp::InternStr { .. } | WalOp::InternWide { .. } => {}
            WalOp::BulkChunk {
                rel: r, cells: c, ..
            } if r == rel => cells += c.len(),
            WalOp::BulkEnd { rel: r } if r == rel => return Ok(Some((cells, next))),
            other => {
                return Err(RecoverError::Replay(format!(
                    "{other} at seq {next} inside the open bulk load of relation {}",
                    rel.0
                )))
            }
        }
    }
}

/// The error for a log whose records read differently the second time:
/// the file changed under recovery.
fn changed() -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        "the log changed while recovery read it",
    )
}

/// Applies the run of index records held so far as one batch, so its
/// builds share every core; each record is still held to its own commit
/// stamp.
fn apply_indexes(db: &mut Database, logged: &mut Vec<LoggedIndex>) -> Result<(), RecoverError> {
    let (Some(first), Some(last)) = (logged.first(), logged.last()) else {
        return Ok(());
    };
    let range = format!("{}..={}", first.0, last.0);
    let batch: Vec<(u64, IndexSpec<'_>)> = logged
        .iter()
        .map(|(_, commit, rel, x, y)| (*commit, (*rel, x.as_slice(), y.as_slice())))
        .collect();
    db.replay_indexes(&batch)
        .map_err(|e| RecoverError::Replay(format!("index records at seq {range}: {e}")))?;
    logged.clear();
    Ok(())
}

/// Whether a log holding no whole frame is the start of a base: its first
/// frame is torn, and the bytes of its sequence number that made it are
/// all 0 (a history's first record is numbered 1).
fn torn_base(storage: &dyn LogStorage) -> io::Result<bool> {
    let (reader, _) = storage.read()?;
    let mut head = Vec::with_capacity(FRAME_HEADER + 8);
    reader
        .take((FRAME_HEADER + 8) as u64)
        .read_to_end(&mut head)?;
    Ok(head.len() > FRAME_HEADER && head[FRAME_HEADER..].iter().all(|&b| b == 0))
}

/// Decodes one frame's record, a failure reported at the frame's offset.
fn decode<'a>(
    start: u64,
    payload: &'a [u8],
    scratch: &'a mut DecodeScratch,
) -> Result<(u64, WalOp<'a>), RecoverError> {
    decode_op(payload, scratch).map_err(|msg| RecoverError::Record {
        offset: start as usize,
        msg,
    })
}
