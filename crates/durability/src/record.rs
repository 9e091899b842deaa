//! The owned, serializable form of the storage engine's [`WalOp`] records,
//! plus the byte codec used inside log frames.
//!
//! Every record carries a global **sequence number** assigned by the
//! [`crate::WalWriter`] at emission time. The log holds its records in
//! sequence order, and the numbers are what recovery checks that order
//! by: the replayable history is the run of records after the snapshot
//! boundary up to the first whose number is not the next one.

use bcq_storage::WalOp;

/// Payload of one log record (the owned mirror of [`WalOp`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordBody {
    /// String `text` was interned as `Sym(id)`.
    InternStr {
        /// Assigned symbol id.
        id: u32,
        /// Interned string.
        text: String,
    },
    /// Integer `value` entered the wide-int pool at `id`.
    InternWide {
        /// Assigned pool index.
        id: u32,
        /// Pooled integer.
        value: i64,
    },
    /// Row insert (indices maintained).
    Insert {
        /// Commit stamp.
        commit: u64,
        /// Touched relation index.
        rel: u32,
        /// Raw cell words of the row.
        cells: Vec<u64>,
    },
    /// Delete of one copy (indices maintained).
    Delete {
        /// Commit stamp.
        commit: u64,
        /// Touched relation index.
        rel: u32,
        /// Raw cell words of the row.
        cells: Vec<u64>,
    },
    /// A bulk load began (one commit for all following bulk chunks).
    BulkBegin {
        /// Commit stamp.
        commit: u64,
        /// Relation being loaded.
        rel: u32,
    },
    /// One chunk of the in-progress bulk load: `rows` rows stored row-major
    /// back to back in `cells` (one frame per chunk, however many rows).
    BulkChunk {
        /// Relation being loaded.
        rel: u32,
        /// Number of rows in the chunk.
        rows: u32,
        /// Raw cell words of all rows, row-major.
        cells: Vec<u64>,
    },
    /// The bulk load finished (loader dropped); recovery's proof the load
    /// was not torn.
    BulkEnd {
        /// Relation that was being loaded.
        rel: u32,
    },
    /// An index was built.
    EnsureIndex {
        /// Commit stamp.
        commit: u64,
        /// Indexed relation.
        rel: u32,
        /// Key columns.
        x: Vec<u32>,
        /// Value columns.
        y: Vec<u32>,
    },
}

/// One log record: a globally sequenced [`RecordBody`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Global sequence number (dense, ascending through the log).
    pub seq: u64,
    /// The logical mutation.
    pub body: RecordBody,
}

const KIND_INTERN_STR: u8 = 1;
const KIND_INTERN_WIDE: u8 = 2;
const KIND_INSERT: u8 = 4;
const KIND_DELETE: u8 = 6;
const KIND_BULK_BEGIN: u8 = 7;
const KIND_ENSURE_INDEX: u8 = 9;
const KIND_BULK_END: u8 = 10;
const KIND_BULK_CHUNK: u8 = 11;

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

fn take_cells(r: &mut Reader<'_>) -> Result<Vec<u64>, DecodeError> {
    let n = r.u32()? as usize;
    (0..n).map(|_| r.u64()).collect()
}

fn take_cols(r: &mut Reader<'_>) -> Result<Vec<u32>, DecodeError> {
    let n = r.u32()? as usize;
    (0..n).map(|_| r.u32()).collect()
}

/// Serializes `op` under sequence number `seq` straight onto `out`: the
/// one encoder of the record format, whose bytes [`WalRecord::decode`]
/// reads back as the owned mirror of `op`.
pub fn encode_op_into(seq: u64, op: &WalOp<'_>, out: &mut Vec<u8>) {
    let put_cell_slice = |out: &mut Vec<u8>, cells: &[bcq_core::prelude::Cell]| {
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
    }
}

impl WalRecord {
    /// Parses a frame payload back into a record.
    pub fn decode(bytes: &[u8]) -> Result<WalRecord, DecodeError> {
        let mut r = Reader::new(bytes);
        let seq = r.u64()?;
        let kind = r.u8()?;
        let body = match kind {
            KIND_INTERN_STR => {
                let id = r.u32()?;
                let len = r.u32()? as usize;
                let text = std::str::from_utf8(r.take(len)?)
                    .map_err(|e| format!("intern record not UTF-8: {e}"))?
                    .to_string();
                RecordBody::InternStr { id, text }
            }
            KIND_INTERN_WIDE => RecordBody::InternWide {
                id: r.u32()?,
                value: r.i64()?,
            },
            KIND_INSERT => RecordBody::Insert {
                commit: r.u64()?,
                rel: r.u32()?,
                cells: take_cells(&mut r)?,
            },
            KIND_DELETE => RecordBody::Delete {
                commit: r.u64()?,
                rel: r.u32()?,
                cells: take_cells(&mut r)?,
            },
            KIND_BULK_BEGIN => RecordBody::BulkBegin {
                commit: r.u64()?,
                rel: r.u32()?,
            },
            KIND_BULK_CHUNK => RecordBody::BulkChunk {
                rel: r.u32()?,
                rows: r.u32()?,
                cells: take_cells(&mut r)?,
            },
            KIND_BULK_END => RecordBody::BulkEnd { rel: r.u32()? },
            KIND_ENSURE_INDEX => RecordBody::EnsureIndex {
                commit: r.u64()?,
                rel: r.u32()?,
                x: take_cols(&mut r)?,
                y: take_cols(&mut r)?,
            },
            other => {
                return Err(match RETIRED_KINDS.iter().find(|(tag, _)| *tag == other) {
                    Some((_, name)) => format!("retired record kind {other} ({name})"),
                    None => format!("unknown record kind {other}"),
                })
            }
        };
        r.done()?;
        Ok(WalRecord { seq, body })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcq_core::prelude::{Cell, RelId};

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
        let records = [
            (
                WalOp::InternStr {
                    id: 3,
                    text: "héllo",
                },
                RecordBody::InternStr {
                    id: 3,
                    text: "héllo".into(),
                },
            ),
            (
                WalOp::InternWide {
                    id: 0,
                    value: i64::MIN,
                },
                RecordBody::InternWide {
                    id: 0,
                    value: i64::MIN,
                },
            ),
            (
                WalOp::Insert {
                    commit: 9,
                    rel: RelId(1),
                    cells: &cells,
                },
                RecordBody::Insert {
                    commit: 9,
                    rel: 1,
                    cells: vec![0b1001, 0b0010],
                },
            ),
            (
                WalOp::Delete {
                    commit: 11,
                    rel: RelId(2),
                    cells: &[],
                },
                RecordBody::Delete {
                    commit: 11,
                    rel: 2,
                    cells: vec![],
                },
            ),
            (
                WalOp::BulkBegin {
                    commit: 13,
                    rel: RelId(7),
                },
                RecordBody::BulkBegin { commit: 13, rel: 7 },
            ),
            (
                WalOp::BulkChunk {
                    rel: RelId(7),
                    rows: 2,
                    cells: &chunk,
                },
                RecordBody::BulkChunk {
                    rel: 7,
                    rows: 2,
                    cells: chunk.iter().map(|c| c.raw()).collect(),
                },
            ),
            (
                WalOp::BulkEnd { rel: RelId(7) },
                RecordBody::BulkEnd { rel: 7 },
            ),
            (
                WalOp::EnsureIndex {
                    commit: 14,
                    rel: RelId(7),
                    x: &[0, 2],
                    y: &[1],
                },
                RecordBody::EnsureIndex {
                    commit: 14,
                    rel: 7,
                    x: vec![0, 2],
                    y: vec![1],
                },
            ),
        ];
        let mut tags = Vec::new();
        for (i, (op, body)) in records.into_iter().enumerate() {
            let seq = i as u64 + 100;
            let bytes = encode(seq, &op);
            tags.push(bytes[8]);
            assert_eq!(WalRecord::decode(&bytes).unwrap(), WalRecord { seq, body });
        }
        assert_eq!(tags, [1, 2, 4, 6, 7, 11, 10, 9], "surviving tag bytes");
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
            let err = WalRecord::decode(&row).unwrap_err();
            assert!(
                err.contains(&format!("retired record kind {tag}")) && err.contains(name),
                "tag {tag}: {err}"
            );
        }
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        assert!(WalRecord::decode(&[]).is_err(), "empty");
        assert!(WalRecord::decode(&[0; 9]).is_err(), "kind 0");
        let begin = WalOp::BulkBegin {
            commit: 1,
            rel: RelId(0),
        };
        let mut bytes = encode(1, &begin);
        bytes.push(0xFF);
        assert!(WalRecord::decode(&bytes).is_err(), "trailing bytes");
        bytes.truncate(bytes.len() - 3);
        assert!(WalRecord::decode(&bytes).is_err(), "short body");
    }
}
