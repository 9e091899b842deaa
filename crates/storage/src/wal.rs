//! The write-ahead-log hook: how the storage engine tells a durability
//! layer what just happened, without depending on one.
//!
//! Every effective mutation of a [`crate::Database`] funnels through
//! `shard_mut` (or the bulk loader's equivalent), bumps the global commit
//! counter exactly once, and stamps the touched shard's epoch. This module
//! exposes that funnel as a stream of logical [`WalOp`] records delivered
//! to an injected [`WalSink`]: one op record per commit bump, preceded by
//! [`WalOp::InternStr`] / [`WalOp::InternWide`] records whenever encoding
//! the op's row grew the symbol table.
//!
//! ## The replay contract
//!
//! Replay is the inverse of emission and lives beside it
//! ([`Database::replay`](crate::Database::replay) and its bulk and index
//! forms). Replaying a log in order reproduces the store *exactly*:
//!
//! * **Commits are 1:1.** Each op record carries the commit number it was
//!   stamped with, and replay refuses a record whose stamp is not the
//!   commit it arrives at. Per-relation epochs — the vector clock —
//!   follow, because the epoch is just the commit number of the
//!   relation's last mutation. Ineffective calls (deleting an absent row,
//!   re-ensuring an existing index) emit nothing, exactly as they bump
//!   nothing, so a logged delete that finds no row is refused too.
//! * **Cells are applied as logged.** Symbol interning assigns dense
//!   sequential ids, and the intern records rebuild the symbol table in id
//!   order — each must land on the id it was logged with. The raw cells of
//!   an op record then go into the table and its indices as they are:
//!   nothing is decoded to values and re-encoded, and a cell naming a
//!   symbol or wide-int id the table does not hold yet is refused.
//! * **Bulk loads are bracketed.**
//!   [`Database::bulk_loader`](crate::Database::bulk_loader) bumps the
//!   commit once for the whole load; the stream mirrors that with one
//!   [`WalOp::BulkBegin`] followed by one [`WalOp::BulkChunk`] per pushed
//!   chunk (a single row pushed on its own is a one-row chunk), none of
//!   which carries a commit of its own, closed by a [`WalOp::BulkEnd`]
//!   when the loader drops — recovery's proof that the load was not torn
//!   mid-way. A bracket replays only once its end is known: the loader
//!   reserves the bracket's total rows first, as a live load does, then
//!   takes its intern and chunk records in logged order, each chunk's
//!   cells appended row-major as they were logged.
//! * **Indices never leave on a row write.** There is one insert and one
//!   delete record; both maintain every registered index, live and on
//!   replay, so an index logged by [`WalOp::EnsureIndex`] stays built
//!   until a bulk load clears it.
//! * **A checkpoint is written in the same records.** The current state
//!   is its interns in id order, one bulk bracket per non-empty relation
//!   and its index records — each stamped with the commit replay arrives
//!   at — closed by one [`WalOp::Checkpoint`] that sets the vector clock
//!   to the one the state was taken at.
//!
//! The sink is called *after* the in-memory mutation succeeds, under the
//! same `&mut self` that performed it, so the record order equals the
//! commit order with no extra locking. Sinks are shared by `Arc` across
//! database clones: a clone of a WAL-attached database (e.g. a read
//! snapshot) carries the same sink, which is harmless for read-only
//! snapshots — and means a clone mutated on the side would log too, so
//! durability layers attach the sink to exactly one writer lineage.

use bcq_core::error::{CoreError, Result};
use bcq_core::prelude::{Cell, CellKind, RelId, SymbolTable, Value};
use bcq_core::symbols::Sym;
use std::fmt;
use std::sync::Arc;

/// One logical mutation record, borrowed from the write path that
/// produced it. See the [module docs](self) for the replay contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalOp<'a> {
    /// A string was interned: `Sym(id)` now resolves to `text`. Emitted
    /// before the op record whose row encoding triggered it.
    InternStr {
        /// The dense id assigned (sequential from 0).
        id: u32,
        /// The interned string.
        text: &'a str,
    },
    /// An out-of-range integer entered the wide-int pool at `id`.
    InternWide {
        /// The dense pool index assigned (sequential from 0).
        id: u32,
        /// The pooled integer.
        value: i64,
    },
    /// A row insert ([`crate::Database::insert`], or a prepared one
    /// installed by [`crate::Database::commit_prepared`]): row appended,
    /// the relation's indices updated in place.
    Insert {
        /// Commit number this mutation was stamped with.
        commit: u64,
        /// The touched relation.
        rel: RelId,
        /// The stored row, as interned cells.
        cells: &'a [Cell],
    },
    /// A delete of one copy ([`crate::Database::delete`], in place or
    /// prepared), the relation's indices updated in place.
    Delete {
        /// Commit number this mutation was stamped with.
        commit: u64,
        /// The touched relation.
        rel: RelId,
        /// The deleted row, as interned cells.
        cells: &'a [Cell],
    },
    /// A bulk load began ([`crate::Database::bulk_loader`]): one commit
    /// bump covering every following [`WalOp::BulkChunk`] for `rel`, and
    /// the relation's indices dropped.
    BulkBegin {
        /// Commit number the whole load was stamped with.
        commit: u64,
        /// The relation being loaded.
        rel: RelId,
    },
    /// A whole chunk of rows appended under the preceding
    /// [`WalOp::BulkBegin`] (no commit bump of its own): `cells` holds
    /// `rows` row-major rows back to back. One record per chunk amortizes
    /// framing, sequencing and fsync accounting over thousands of rows.
    BulkChunk {
        /// The relation being loaded.
        rel: RelId,
        /// Rows in this chunk.
        rows: u32,
        /// The appended rows, row-major (`rows * arity` interned cells).
        cells: &'a [Cell],
    },
    /// The bulk load for `rel` finished (the loader was dropped). Recovery
    /// treats a [`WalOp::BulkBegin`] with no matching end as torn and
    /// discards the whole load (no commit bump of its own).
    BulkEnd {
        /// The relation that was being loaded.
        rel: RelId,
    },
    /// An index was built ([`crate::Database::ensure_indexes_cols`] on a
    /// previously-unindexed `(x, y)`).
    EnsureIndex {
        /// Commit number this build was stamped with.
        commit: u64,
        /// The indexed relation.
        rel: RelId,
        /// Key columns.
        x: &'a [usize],
        /// Value columns.
        y: &'a [usize],
    },
    /// The vector clock of a compacted log: the closing record of a
    /// checkpoint, which writes the current state as intern, bulk and
    /// index records and then this one. Replay sets the global commit
    /// and every relation's epoch to it (no commit bump of its own), so a
    /// relation emptied by deletes keeps its epoch with no record of its
    /// own; an epoch beyond `commit` is refused.
    Checkpoint {
        /// The global commit counter the state stands at.
        commit: u64,
        /// The last sequence number of the log the state was compacted
        /// from; records after this one continue at `last_seq + 1`.
        /// Replay leaves it to the log layer.
        last_seq: u64,
        /// Every relation's epoch, in relation order.
        epochs: &'a [u64],
    },
}

impl WalOp<'_> {
    /// The commit number this record was stamped with, if it represents a
    /// commit bump (intern and bulk-chunk records ride under a neighbouring
    /// op's commit).
    pub fn commit(&self) -> Option<u64> {
        match *self {
            WalOp::Insert { commit, .. }
            | WalOp::Delete { commit, .. }
            | WalOp::BulkBegin { commit, .. }
            | WalOp::EnsureIndex { commit, .. } => Some(commit),
            WalOp::InternStr { .. }
            | WalOp::InternWide { .. }
            | WalOp::BulkChunk { .. }
            | WalOp::BulkEnd { .. }
            | WalOp::Checkpoint { .. } => None,
        }
    }
}

/// Bytes of an intern's text a [`WalOp`] summary copies.
const TEXT_CAP: usize = 32;

/// A one-line summary for refusal messages: the record's kind, relation,
/// commit stamp and cell count — never its cells, and at most 32 bytes of
/// an intern's text, so a refused bulk chunk does not render its
/// thousands of cells.
impl fmt::Display for WalOp<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            WalOp::InternStr { id, text } => {
                let mut end = text.len().min(TEXT_CAP);
                while !text.is_char_boundary(end) {
                    end -= 1;
                }
                write!(f, "string intern #{id} {:?}", &text[..end])?;
                if end < text.len() {
                    write!(f, "… ({} bytes)", text.len())?;
                }
                Ok(())
            }
            WalOp::InternWide { id, value } => write!(f, "wide-int intern #{id} ({value})"),
            WalOp::Insert { commit, rel, cells } => write!(
                f,
                "insert into relation {} at commit {commit} ({} cells)",
                rel.0,
                cells.len()
            ),
            WalOp::Delete { commit, rel, cells } => write!(
                f,
                "delete from relation {} at commit {commit} ({} cells)",
                rel.0,
                cells.len()
            ),
            WalOp::BulkBegin { commit, rel } => {
                write!(f, "bulk begin of relation {} at commit {commit}", rel.0)
            }
            WalOp::BulkChunk { rel, rows, cells } => write!(
                f,
                "bulk chunk of relation {} ({rows} rows, {} cells)",
                rel.0,
                cells.len()
            ),
            WalOp::BulkEnd { rel } => write!(f, "bulk end of relation {}", rel.0),
            WalOp::EnsureIndex { commit, rel, x, y } => write!(
                f,
                "index on relation {} at commit {commit} ({} key, {} value columns)",
                rel.0,
                x.len(),
                y.len()
            ),
            WalOp::Checkpoint {
                commit,
                last_seq,
                epochs,
            } => write!(
                f,
                "checkpoint at commit {commit} through seq {last_seq} ({} relations)",
                epochs.len()
            ),
        }
    }
}

/// Receiver of the storage engine's mutation record stream.
///
/// Implemented by the durability layer's log writer; injected via
/// [`crate::Database::set_wal`]. Called under the writer's `&mut
/// Database`, so implementations see records strictly in commit order but
/// must be `Sync` (the database itself is shared behind snapshots) and
/// internally mutable.
pub trait WalSink: Send + Sync + std::fmt::Debug {
    /// Delivers one record. Must not call back into the database.
    ///
    /// Infallible by design: the write path cannot surface I/O errors
    /// without poisoning unrelated callers, so sinks buffer failures
    /// internally and surface them on their own sync/checkpoint API.
    fn record(&self, op: WalOp<'_>);
}

/// Re-interns one logged intern record into `symbols`, refusing it unless
/// it lands on the id it was logged with: the next id for a new value, its
/// own id for one already interned.
pub(crate) fn replay_intern(symbols: &mut Arc<SymbolTable>, op: WalOp<'_>) -> Result<()> {
    let table = Arc::make_mut(symbols);
    let (landed, logged) = match op {
        WalOp::InternStr { id, text } => {
            (Cell::from_sym(table.intern(text)), CellKind::Sym(Sym(id)))
        }
        WalOp::InternWide { id, value } => {
            (table.encode(&Value::Int(value)), CellKind::WideInt(id))
        }
        _ => unreachable!("{op} is not an intern record"),
    };
    if landed.kind() != logged {
        return Err(CoreError::Invalid(format!("{op} landed on {landed:?}")));
    }
    Ok(())
}

/// Refuses logged cells that name a symbol or wide-int id `symbols` does
/// not hold: replay applies cells as stored, so an unknown id would
/// otherwise become a row no decode can read.
pub(crate) fn check_logged_cells(symbols: &SymbolTable, cells: &[Cell]) -> Result<()> {
    let known = |cell: &Cell| match cell.kind() {
        CellKind::Null | CellKind::SmallInt(_) => true,
        CellKind::Sym(sym) => (sym.0 as usize) < symbols.len(),
        CellKind::WideInt(ix) => (ix as usize) < symbols.num_wide_ints(),
    };
    match cells.iter().find(|c| !known(c)) {
        Some(c) => Err(CoreError::Invalid(format!(
            "{c:?} names an id never interned"
        ))),
        None => Ok(()),
    }
}

/// Refuses a commit-bearing record whose stamp is not the commit its
/// replay arrives at.
pub(crate) fn check_stamp(commit: u64, arrived: u64) -> Result<()> {
    if arrived == commit {
        return Ok(());
    }
    Err(CoreError::Invalid(format!(
        "record stamped commit {commit}, replay arrived at {arrived}"
    )))
}

/// Refuses replay into a database that logs: what replay applies was
/// logged already, and a re-applied intern would mint a symbol no record
/// announces.
pub(crate) fn refuse_logging(logging: bool) -> Result<()> {
    if logging {
        return Err(CoreError::Invalid(
            "replay into a database that logs".into(),
        ));
    }
    Ok(())
}
