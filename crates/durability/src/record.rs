//! The byte codec of the storage engine's [`WalOp`] records inside log
//! frames — one record type both ways: [`encode_op_into`] writes an op,
//! [`decode_op`] reads it back as a [`WalOp`] borrowing the payload (its
//! cells and columns copied into a reused [`DecodeScratch`]).
//!
//! Every record carries a global **sequence number** assigned by the
//! [`crate::WalWriter`] at emission time. The log holds its records in
//! sequence order, and the numbers are what recovery checks that order
//! by: the replayable history is the run of records up to the first whose
//! number is not the next one. A checkpoint's compacted base numbers its
//! own records from 0 — a history starts at 1 — and its closing
//! [`WalOp::Checkpoint`] names the number the records after it continue
//! from.

use crate::frame::{crc32, FRAME_HEADER};
use bcq_core::prelude::{Cell, RelId};
use bcq_storage::WalOp;

const KIND_INTERN_STR: u8 = 1;
const KIND_INTERN_WIDE: u8 = 2;
const KIND_INSERT: u8 = 4;
const KIND_DELETE: u8 = 6;
const KIND_BULK_BEGIN: u8 = 7;
const KIND_ENSURE_INDEX: u8 = 9;
const KIND_BULK_END: u8 = 10;
const KIND_BULK_CHUNK: u8 = 11;
const KIND_CHECKPOINT: u8 = 12;

/// Tags of record kinds no writer emits any more. They keep their numbers
/// so a log that still holds one is refused by name instead of being
/// misread as a surviving kind.
const RETIRED_KINDS: [(u8, &str); 3] = [
    (3, "index-dropping Insert"),
    (5, "index-dropping Delete"),
    (8, "per-row BulkRow"),
];

/// A decode failure: the frame passed its CRC but its payload does not
/// parse — a codec bug or version skew, never silently skippable.
pub type DecodeError = String;

/// A little-endian byte reader over a record payload.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.bytes.len() - self.pos < n {
            return Err(format!(
                "record truncated: wanted {n} bytes at {} of {}",
                self.pos,
                self.bytes.len()
            ));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn i64(&mut self) -> Result<i64, DecodeError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    pub(crate) fn done(&self) -> Result<(), DecodeError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(format!(
                "{} trailing bytes after record body",
                self.bytes.len() - self.pos
            ))
        }
    }
}

/// Serializes `op` under sequence number `seq` straight onto `out`: the
/// one encoder of the record format, whose bytes [`decode_op`] reads back
/// as `op`.
pub fn encode_op_into(seq: u64, op: &WalOp<'_>, out: &mut Vec<u8>) {
    let put_cell_slice = |out: &mut Vec<u8>, cells: &[Cell]| {
        out.extend_from_slice(&(cells.len() as u32).to_le_bytes());
        for c in cells {
            out.extend_from_slice(&c.raw().to_le_bytes());
        }
    };
    let put_col_slice = |out: &mut Vec<u8>, cols: &[usize]| {
        out.extend_from_slice(&(cols.len() as u32).to_le_bytes());
        for &c in cols {
            out.extend_from_slice(&(c as u32).to_le_bytes());
        }
    };
    out.extend_from_slice(&seq.to_le_bytes());
    match *op {
        WalOp::InternStr { id, text } => {
            out.push(KIND_INTERN_STR);
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&(text.len() as u32).to_le_bytes());
            out.extend_from_slice(text.as_bytes());
        }
        WalOp::InternWide { id, value } => {
            out.push(KIND_INTERN_WIDE);
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&value.to_le_bytes());
        }
        WalOp::Insert { commit, rel, cells } => {
            out.push(KIND_INSERT);
            out.extend_from_slice(&commit.to_le_bytes());
            out.extend_from_slice(&(rel.0 as u32).to_le_bytes());
            put_cell_slice(out, cells);
        }
        WalOp::Delete { commit, rel, cells } => {
            out.push(KIND_DELETE);
            out.extend_from_slice(&commit.to_le_bytes());
            out.extend_from_slice(&(rel.0 as u32).to_le_bytes());
            put_cell_slice(out, cells);
        }
        WalOp::BulkBegin { commit, rel } => {
            out.push(KIND_BULK_BEGIN);
            out.extend_from_slice(&commit.to_le_bytes());
            out.extend_from_slice(&(rel.0 as u32).to_le_bytes());
        }
        WalOp::BulkChunk { rel, rows, cells } => {
            out.push(KIND_BULK_CHUNK);
            out.extend_from_slice(&(rel.0 as u32).to_le_bytes());
            out.extend_from_slice(&rows.to_le_bytes());
            put_cell_slice(out, cells);
        }
        WalOp::BulkEnd { rel } => {
            out.push(KIND_BULK_END);
            out.extend_from_slice(&(rel.0 as u32).to_le_bytes());
        }
        WalOp::EnsureIndex { commit, rel, x, y } => {
            out.push(KIND_ENSURE_INDEX);
            out.extend_from_slice(&commit.to_le_bytes());
            out.extend_from_slice(&(rel.0 as u32).to_le_bytes());
            put_col_slice(out, x);
            put_col_slice(out, y);
        }
        WalOp::Checkpoint {
            commit,
            last_seq,
            epochs,
        } => {
            out.push(KIND_CHECKPOINT);
            out.extend_from_slice(&commit.to_le_bytes());
            out.extend_from_slice(&last_seq.to_le_bytes());
            out.extend_from_slice(&(epochs.len() as u32).to_le_bytes());
            for epoch in epochs {
                out.extend_from_slice(&epoch.to_le_bytes());
            }
        }
    }
}

/// Replaces `out` with `op`'s record under sequence number `seq`, framed
/// (length and CRC header, then the payload) and ready to append.
pub(crate) fn encode_frame(seq: u64, op: &WalOp<'_>, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&[0; FRAME_HEADER]);
    encode_op_into(seq, op, out);
    let len = u32::try_from(out.len() - FRAME_HEADER).expect("record too large");
    let crc = crc32(&out[FRAME_HEADER..]);
    out[..4].copy_from_slice(&len.to_le_bytes());
    out[4..8].copy_from_slice(&crc.to_le_bytes());
}

/// Reused buffers [`decode_op`] copies a record's cells, columns and
/// epochs into: payload words are unaligned, so the borrowed op points
/// here instead.
#[derive(Debug, Default)]
pub struct DecodeScratch {
    cells: Vec<Cell>,
    x: Vec<usize>,
    y: Vec<usize>,
    epochs: Vec<u64>,
}

/// Parses a frame payload into its sequence number and the [`WalOp`] it
/// encodes: strings borrowed from `bytes`, cells and columns from
/// `scratch`. A word that is no valid cell encoding is a decode failure.
pub fn decode_op<'a>(
    bytes: &'a [u8],
    scratch: &'a mut DecodeScratch,
) -> Result<(u64, WalOp<'a>), DecodeError> {
    let mut r = Reader::new(bytes);
    let seq = r.u64()?;
    let kind = r.u8()?;
    let rel = |r: &mut Reader<'_>| Ok::<_, DecodeError>(RelId(r.u32()? as usize));
    let DecodeScratch {
        cells,
        x,
        y,
        epochs,
    } = scratch;
    let op = match kind {
        KIND_INTERN_STR => {
            let id = r.u32()?;
            let len = r.u32()? as usize;
            let text = std::str::from_utf8(r.take(len)?)
                .map_err(|e| format!("intern record not UTF-8: {e}"))?;
            WalOp::InternStr { id, text }
        }
        KIND_INTERN_WIDE => WalOp::InternWide {
            id: r.u32()?,
            value: r.i64()?,
        },
        KIND_INSERT => WalOp::Insert {
            commit: r.u64()?,
            rel: rel(&mut r)?,
            cells: take_cells(&mut r, cells)?,
        },
        KIND_DELETE => WalOp::Delete {
            commit: r.u64()?,
            rel: rel(&mut r)?,
            cells: take_cells(&mut r, cells)?,
        },
        KIND_BULK_BEGIN => WalOp::BulkBegin {
            commit: r.u64()?,
            rel: rel(&mut r)?,
        },
        KIND_BULK_CHUNK => WalOp::BulkChunk {
            rel: rel(&mut r)?,
            rows: r.u32()?,
            cells: take_cells(&mut r, cells)?,
        },
        KIND_BULK_END => WalOp::BulkEnd { rel: rel(&mut r)? },
        KIND_ENSURE_INDEX => WalOp::EnsureIndex {
            commit: r.u64()?,
            rel: rel(&mut r)?,
            x: take_cols(&mut r, x)?,
            y: take_cols(&mut r, y)?,
        },
        KIND_CHECKPOINT => WalOp::Checkpoint {
            commit: r.u64()?,
            last_seq: r.u64()?,
            epochs: {
                let n = r.u32()? as usize;
                epochs.clear();
                epochs.reserve(n.min(r.remaining() / 8));
                for _ in 0..n {
                    epochs.push(r.u64()?);
                }
                epochs
            },
        },
        other => {
            return Err(match RETIRED_KINDS.iter().find(|(tag, _)| *tag == other) {
                Some((_, name)) => format!("retired record kind {other} ({name})"),
                None => format!("unknown record kind {other}"),
            })
        }
    };
    r.done()?;
    Ok((seq, op))
}

/// A length-prefixed run of cell words, into `out`: the count is held to
/// the bytes left before anything is reserved, and the reservation is
/// exact, so a large chunk leaves no doubled buffer behind.
fn take_cells<'a>(r: &mut Reader<'_>, out: &'a mut Vec<Cell>) -> Result<&'a [Cell], DecodeError> {
    let n = r.u32()? as usize;
    let words = r.take(n * 8)?;
    out.clear();
    out.reserve_exact(n);
    for word in words.chunks_exact(8) {
        let raw = u64::from_le_bytes(word.try_into().unwrap());
        out.push(Cell::from_raw(raw).ok_or_else(|| format!("invalid cell word {raw:#x}"))?);
    }
    Ok(out)
}

/// Payload bytes [`peek_bulk`] reads: a chunk's sequence number, kind,
/// relation, row count and cell count.
pub(crate) const BULK_HEAD: usize = 21;

/// What the head of a record inside a bulk load says, read before the
/// record's CRC is checked: recovery's look-ahead for the load's end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BulkHead {
    /// An intern record.
    Intern,
    /// A chunk of `rel` claiming `cells` cells.
    Chunk { rel: RelId, cells: usize },
    /// The end of the load of `rel`.
    End { rel: RelId },
}

/// The sequence number and [`BulkHead`] of a record from the first
/// [`BULK_HEAD`] bytes of its payload (or all of a shorter one); `None`
/// for any other kind or a head too short for its kind.
pub(crate) fn peek_bulk(head: &[u8]) -> Option<(u64, BulkHead)> {
    let mut r = Reader::new(head);
    let seq = r.u64().ok()?;
    let rel = |r: &mut Reader<'_>| r.u32().ok().map(|rel| RelId(rel as usize));
    let op = match r.u8().ok()? {
        KIND_INTERN_STR | KIND_INTERN_WIDE => BulkHead::Intern,
        KIND_BULK_CHUNK => {
            let rel = rel(&mut r)?;
            r.u32().ok()?;
            let cells = r.u32().ok()? as usize;
            BulkHead::Chunk { rel, cells }
        }
        KIND_BULK_END => BulkHead::End { rel: rel(&mut r)? },
        _ => return None,
    };
    Some((seq, op))
}

/// A length-prefixed run of column numbers, into `out`.
fn take_cols<'a>(r: &mut Reader<'_>, out: &'a mut Vec<usize>) -> Result<&'a [usize], DecodeError> {
    let n = r.u32()? as usize;
    out.clear();
    for _ in 0..n {
        out.push(r.u32()? as usize);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The payload bytes of `op` under sequence number `seq`.
    fn encode(seq: u64, op: &WalOp<'_>) -> Vec<u8> {
        let mut out = Vec::new();
        encode_op_into(seq, op, &mut out);
        out
    }

    #[test]
    fn every_record_kind_roundtrips() {
        let cells = [
            Cell::from_raw(0b1001).unwrap(),
            Cell::from_raw(0b0010).unwrap(),
        ];
        let chunk: Vec<Cell> = (1..=6).map(|i| Cell::from_small_int(i).unwrap()).collect();
        let ops = [
            WalOp::InternStr {
                id: 3,
                text: "héllo",
            },
            WalOp::InternWide {
                id: 0,
                value: i64::MIN,
            },
            WalOp::Insert {
                commit: 9,
                rel: RelId(1),
                cells: &cells,
            },
            WalOp::Delete {
                commit: 11,
                rel: RelId(2),
                cells: &[],
            },
            WalOp::BulkBegin {
                commit: 13,
                rel: RelId(7),
            },
            WalOp::BulkChunk {
                rel: RelId(7),
                rows: 2,
                cells: &chunk,
            },
            WalOp::BulkEnd { rel: RelId(7) },
            WalOp::EnsureIndex {
                commit: 14,
                rel: RelId(7),
                x: &[0, 2],
                y: &[1],
            },
            WalOp::Checkpoint {
                commit: 15,
                last_seq: 99,
                epochs: &[0, 15, 3],
            },
        ];
        let mut tags = Vec::new();
        let mut scratch = DecodeScratch::default();
        for (i, op) in ops.into_iter().enumerate() {
            let seq = i as u64 + 100;
            let bytes = encode(seq, &op);
            tags.push(bytes[8]);
            assert_eq!(decode_op(&bytes, &mut scratch).unwrap(), (seq, op));
        }
        assert_eq!(tags, [1, 2, 4, 6, 7, 11, 10, 9, 12], "surviving tag bytes");
    }

    #[test]
    fn the_bulk_head_is_what_decode_reads() {
        let chunk: Vec<Cell> = (1..=6).map(|i| Cell::from_small_int(i).unwrap()).collect();
        for (seq, op, head) in [
            (
                3,
                WalOp::InternStr { id: 0, text: "x" },
                Some(BulkHead::Intern),
            ),
            (
                4,
                WalOp::InternWide {
                    id: 0,
                    value: 1 << 62,
                },
                Some(BulkHead::Intern),
            ),
            (
                5,
                WalOp::BulkChunk {
                    rel: RelId(2),
                    rows: 3,
                    cells: &chunk,
                },
                Some(BulkHead::Chunk {
                    rel: RelId(2),
                    cells: 6,
                }),
            ),
            (
                6,
                WalOp::BulkEnd { rel: RelId(2) },
                Some(BulkHead::End { rel: RelId(2) }),
            ),
            (
                7,
                WalOp::BulkBegin {
                    commit: 1,
                    rel: RelId(2),
                },
                None,
            ),
        ] {
            let bytes = encode(seq, &op);
            let peeked = peek_bulk(&bytes[..bytes.len().min(BULK_HEAD)]);
            assert_eq!(peeked, head.map(|head| (seq, head)), "{op}");
        }
        assert_eq!(peek_bulk(&[0; 12]), None, "a head cut short");
    }

    #[test]
    fn retired_record_kinds_are_refused_by_name() {
        // A well-formed body of the retired layouts (3 and 5 shared the
        // insert layout, 8 was `rel` + cells): the tag alone decides.
        let cells = [Cell::from_raw(0b1001).unwrap()];
        let mut row = encode(
            7,
            &WalOp::Insert {
                commit: 1,
                rel: RelId(0),
                cells: &cells,
            },
        );
        for (tag, name) in [(3u8, "Insert"), (5, "Delete"), (8, "BulkRow")] {
            row[8] = tag;
            let err = decode_op(&row, &mut DecodeScratch::default()).unwrap_err();
            assert!(
                err.contains(&format!("retired record kind {tag}")) && err.contains(name),
                "tag {tag}: {err}"
            );
        }
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        let decode = |bytes: &[u8]| decode_op(bytes, &mut DecodeScratch::default()).is_err();
        assert!(decode(&[]), "empty");
        assert!(decode(&[0; 9]), "kind 0");
        let begin = WalOp::BulkBegin {
            commit: 1,
            rel: RelId(0),
        };
        let mut bytes = encode(1, &begin);
        bytes.push(0xFF);
        assert!(decode(&bytes), "trailing bytes");
        bytes.truncate(bytes.len() - 3);
        assert!(decode(&bytes), "short body");
        // A cell word no encoder writes: an unknown tag.
        let cells = [Cell::from_small_int(1).unwrap()];
        let mut row = encode(
            1,
            &WalOp::Insert {
                commit: 1,
                rel: RelId(0),
                cells: &cells,
            },
        );
        let at = row.len() - 8;
        row[at] = 0b101;
        assert!(decode(&row), "bad tag");
    }
}
