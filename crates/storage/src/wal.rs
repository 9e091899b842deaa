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
//! The record stream is designed so that replaying it through the very
//! same public `Database` API reproduces the store *exactly*:
//!
//! * **Commits are 1:1.** Each op record carries the commit number it was
//!   stamped with; re-applying the ops in order against a database at
//!   commit `c` leaves it at the record's commit. Per-relation epochs — the
//!   vector clock — follow, because the epoch is just the commit number of
//!   the relation's last mutation. Ineffective calls (deleting an absent
//!   row, re-ensuring an existing index) emit nothing, exactly as they bump
//!   nothing.
//! * **Cell ids are stable.** Symbol interning assigns dense sequential
//!   ids, and the intern records replay in emission order, so the raw
//!   `u64` cell words stored in op records decode against the replayed
//!   table to the original values.
//! * **Bulk loads are bracketed.**
//!   [`Database::bulk_loader`](crate::Database::bulk_loader) bumps the
//!   commit once for the whole load; the stream mirrors that with one
//!   [`WalOp::BulkBegin`] followed by one [`WalOp::BulkChunk`] per pushed
//!   chunk (a single row pushed on its own is a one-row chunk), none of
//!   which carries a commit of its own, closed by a [`WalOp::BulkEnd`]
//!   when the loader drops — recovery's proof that the load was not torn
//!   mid-way. Replay folds the load's intern records in first, in logged
//!   order, and hands each chunk's decoded values back to
//!   [`BulkLoader::push_rows`](crate::BulkLoader::push_rows).
//! * **Indices never leave on a row write.** There is one insert and one
//!   delete record; both maintain every registered index, live and on
//!   replay, so an index logged by [`WalOp::EnsureIndex`] stays built
//!   until a bulk load clears it.
//!
//! The sink is called *after* the in-memory mutation succeeds, under the
//! same `&mut self` that performed it, so the record order equals the
//! commit order with no extra locking. Sinks are shared by `Arc` across
//! database clones: a clone of a WAL-attached database (e.g. a read
//! snapshot) carries the same sink, which is harmless for read-only
//! snapshots — and means a clone mutated on the side would log too, so
//! durability layers attach the sink to exactly one writer lineage.

use bcq_core::prelude::{Cell, RelId};

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
    /// An index was built ([`crate::Database::ensure_index`] on a
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
            | WalOp::BulkEnd { .. } => None,
        }
    }

    /// The relation this op belongs to, or `None` for interning records
    /// (which are global to the symbol table, not any one relation).
    pub fn rel(&self) -> Option<RelId> {
        match *self {
            WalOp::InternStr { .. } | WalOp::InternWide { .. } => None,
            WalOp::Insert { rel, .. }
            | WalOp::Delete { rel, .. }
            | WalOp::BulkBegin { rel, .. }
            | WalOp::BulkChunk { rel, .. }
            | WalOp::BulkEnd { rel }
            | WalOp::EnsureIndex { rel, .. } => Some(rel),
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
