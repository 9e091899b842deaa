//! # bcq-durability — per-relation WAL, vector-clock snapshots, crash recovery
//!
//! The durability layer for the bounded-conjunctive-query engine: it turns
//! the storage engine's logical mutation stream ([`bcq_storage::WalOp`],
//! emitted from the `shard_mut` commit funnel) into a crash-safe on-log
//! history, and rebuilds a bit-identical database from it.
//!
//! ## Architecture
//!
//! * [`frame`] — `[len][crc][payload]` framing with a hand-rolled CRC-32;
//!   distinguishes torn tails (dropped) from corruption (fatal).
//! * [`record`] — the owned, serialized form of each WAL op, carrying the
//!   global sequence number recovery merges streams by.
//! * [`storage`] — the injectable [`LogStorage`] I/O boundary, with
//!   [`MemLog`] (fault-injecting, crash-simulating, for tests) and
//!   [`DirLog`] (real files + fsync) implementations.
//! * [`writer`] — [`WalWriter`]: sequences records onto per-relation
//!   streams (`rel-<n>`, plus `meta` for symbol interning) with
//!   group-commit fsync batching ([`SyncPolicy`]).
//! * [`snapshot`] — full-state checkpoints keyed by the per-relation epoch
//!   vector; [`checkpoint`] writes sync-before/sync-after and, once the
//!   snapshot is durable, cuts every stream to 0 and deletes the older
//!   snapshots, so the store keeps one copy of the data.
//! * [`recover()`] — snapshot restore + longest-gap-free-run replay of the
//!   log tail through the public `Database` API; it finishes a cut a
//!   crash interrupted, and refuses when the snapshot it needs does not
//!   decode and the log was already cut behind it.
//!
//! ## Guarantees
//!
//! With `SyncPolicy::Always`, every acknowledged mutation survives any
//! crash; with `EveryOps(n)` (group commit), at most the last `n` writes
//! are lost, and what is recovered is always a *prefix* of the committed
//! history — never a gapped or reordered subset — at a consistent epoch
//! vector. A crash at any step of a checkpoint recovers to the same state
//! as no crash; a snapshot that stops decoding after its cut is refused
//! loudly, never papered over with an older state. Recovery is
//! idempotent: recovering twice equals recovering once.

#![warn(missing_docs)]

pub mod frame;
pub mod record;
pub mod recover;
pub mod snapshot;
pub mod storage;
pub mod writer;

pub use frame::{crc32, decode_frames, DecodedFrames, FrameError};
pub use record::{DecodeError, RecordBody, WalRecord};
pub use recover::{recover, RecoverError, RecoveryReport};
pub use snapshot::{
    checkpoint, decode_snapshot, encode_snapshot, restore_snapshot, snapshot_name, DecodedSnapshot,
    SNAP_PREFIX,
};
pub use storage::{DirLog, LogStorage, MemLog};
pub use writer::{rel_stream, SyncPolicy, WalStats, WalWriter, META_STREAM};
