//! # bcq-durability — write-ahead log, vector-clock snapshots, crash recovery
//!
//! The durability layer for the bounded-conjunctive-query engine: it turns
//! the storage engine's logical mutation stream ([`bcq_storage::WalOp`],
//! emitted from the `shard_mut` commit funnel) into a crash-safe on-log
//! history, and rebuilds a bit-identical database from it.
//!
//! ## Architecture
//!
//! * [`frame`] — `[len][crc][payload]` framing with a hand-rolled
//!   slicing-by-8 CRC-32, also as a running checksum; distinguishes torn
//!   tails (dropped) from corruption (fatal).
//! * [`record`] — the byte codec of each WAL op, one record type both
//!   ways: the storage engine's own [`bcq_storage::WalOp`] is encoded and
//!   decoded back, borrowing the frame payload, under the global sequence
//!   number recovery checks log order by.
//! * [`storage`] — the injectable [`LogStorage`] I/O boundary, with
//!   [`MemLog`] (fault-injecting, crash-simulating, for tests) and
//!   [`DirLog`] (real files + fsync) implementations.
//! * [`writer`] — [`WalWriter`]: appends every record to one log in
//!   sequence order (`wal.log` on a [`DirLog`]); a record is durable at
//!   [`WalWriter::ack`] or [`WalWriter::sync`], with group-commit fsync
//!   batching ([`SyncPolicy`]).
//! * [`snapshot`] — full-state checkpoints keyed by the per-relation epoch
//!   vector, streamed to and from their blob through one chunk buffer;
//!   [`checkpoint`] writes sync-before/sync-after and, once the
//!   snapshot is durable, cuts the log to 0 and deletes the older
//!   snapshots, so the store keeps one copy of the data.
//! * [`recover()`] — snapshot restore + replay of the log tail's in-order
//!   run, each record handed to the storage engine's replay
//!   (`Database::replay`, the inverse of emission) as the cells it logged;
//!   it finishes a cut a crash interrupted, and refuses when the snapshot
//!   it needs does not decode and the log was already cut behind it.
//!
//! ## Guarantees
//!
//! With `SyncPolicy::Always`, every acknowledged mutation survives any
//! crash, and an ack after a failed append returns the error instead of
//! covering a record the log never got; with `EveryOps(n)` (group
//! commit), at most the last `n` writes are lost, and what is recovered
//! is always a *prefix* of the committed history — never a gapped or
//! reordered subset — at a consistent epoch vector. A crash at any step
//! of a checkpoint recovers to the same state as no crash; a snapshot
//! that stops decoding after its cut is refused loudly, never papered
//! over with an older state. Recovery is idempotent: recovering twice
//! equals recovering once.

#![warn(missing_docs)]

pub mod frame;
pub mod record;
pub mod recover;
pub mod snapshot;
pub mod storage;
pub mod writer;

pub use frame::{crc32, decode_frames, DecodedFrames, FrameError};
pub use record::{decode_op, DecodeError, DecodeScratch};
pub use recover::{recover, RecoverError, RecoveryReport};
pub use snapshot::{
    checkpoint, read_snapshot, restore_snapshot, snapshot_name, write_snapshot, DecodedSnapshot,
    SNAP_PREFIX,
};
pub use storage::{BlobReader, BlobSink, DirLog, LogStorage, MemLog};
pub use writer::{SyncPolicy, WalStats, WalWriter};
