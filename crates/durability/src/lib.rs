//! # bcq-durability — write-ahead log, compacting checkpoints, crash recovery
//!
//! The durability layer for the bounded-conjunctive-query engine: it turns
//! the storage engine's logical mutation stream ([`bcq_storage::WalOp`],
//! emitted from the `shard_mut` commit funnel) into a crash-safe on-log
//! history, and rebuilds a bit-identical database from it. The store has
//! one file kind, one record codec and one apply path: a checkpoint is
//! the log compacted to the records of the current state, and recovery is
//! the replay of one log.
//!
//! ## Architecture
//!
//! * [`frame`] — `[len][crc][payload]` framing with a hand-rolled
//!   slicing-by-16 CRC-32, and the [`FrameReader`] that streams a log's
//!   frames through one reused buffer; distinguishes torn tails (dropped)
//!   from corruption (fatal).
//! * [`record`] — the byte codec of each WAL op, one record type both
//!   ways: the storage engine's own [`bcq_storage::WalOp`] is encoded and
//!   decoded back, borrowing the frame payload, under the global sequence
//!   number recovery checks log order by.
//! * [`storage`] — the injectable [`LogStorage`] I/O boundary (append,
//!   sync, a streamed read, truncate, and an atomic whole-log replace),
//!   with [`MemLog`] (fault-injecting, crash-simulating, for tests) and
//!   [`DirLog`] (real files + fsync) implementations.
//! * [`writer`] — [`WalWriter`]: appends every record to one log in
//!   sequence order (`wal.log` on a [`DirLog`]); a record is durable at
//!   [`WalWriter::ack`] or [`WalWriter::sync`], with group-commit fsync
//!   batching ([`SyncPolicy`]).
//! * [`checkpoint()`] — compacts the log: writes the current state as the
//!   log's own records (interns, one bulk load per relation, the index
//!   records, and a closing record carrying the vector clock), streamed
//!   through one chunk, and replaces the log with them atomically, so the
//!   store keeps one copy of the data.
//! * [`recover()`] — streams the log once and replays its in-order run,
//!   each record handed to the storage engine's replay
//!   (`Database::replay`, the inverse of emission) as the cells it logged;
//!   it refuses a log whose compacted base breaks off before its closing
//!   record.
//!
//! ## Guarantees
//!
//! With `SyncPolicy::Always`, every acknowledged mutation survives any
//! crash, and an ack after a failed append or fsync returns the error
//! instead of covering a record the log may not hold; with `EveryOps(n)`
//! (group commit), at most the last `n` writes are lost, and what is
//! recovered is always a *prefix* of the committed history — never a
//! gapped or reordered subset — at a consistent epoch vector. A crash at
//! any step of a checkpoint recovers to the same state as no crash; a
//! base that breaks off is refused loudly, never replayed as a shorter
//! history. Recovery is idempotent: recovering twice equals recovering
//! once.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod frame;
pub mod record;
pub mod recover;
pub mod storage;
pub mod writer;

pub use checkpoint::checkpoint;
pub use frame::{crc32, FrameError, FrameReader};
pub use record::{decode_op, DecodeError, DecodeScratch};
pub use recover::{recover, RecoverError, RecoveryReport};
pub use storage::{DirLog, LogStorage, MemLog, SeekRead};
pub use writer::{SyncPolicy, WalStats, WalWriter};
