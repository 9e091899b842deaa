#![warn(missing_docs)]
//! # bcq-storage — in-memory relational substrate
//!
//! The storage engine the paper's experiments need: row-major tables, hash
//! indices implementing the retrieval contract of access constraints
//! (witness sets of at most `N` tuples per key), `D |= A` validation,
//! constraint discovery from data, and the access metering behind the
//! `|D_Q|` axes of Figure 5.
//!
//! Tables and index keys are stored as **interned rows** ([`bcq_core::row`]):
//! the [`Database`] owns the [`bcq_core::symbols::SymbolTable`] and is the
//! sole [`bcq_core::value::Value`] ⇄ cell boundary — inserts encode, result
//! decoding and the [`Database::value_rows`] helper decode, and everything
//! in between hashes fixed-width words.
//!
//! Storage is **sharded by relation** ([`RelationShard`]): each relation's
//! table, indices, and epoch sit behind one `Arc`, so cloning a database is
//! O(relations) and a write copies only the shard it touches. Epochs form a
//! per-relation **vector clock** ([`Database::epoch_of`]) under a monotone
//! global commit counter ([`Database::epoch`]).

pub mod bulk;
pub mod csv;
pub mod database;
pub mod index;
#[cfg(test)]
mod index_proptest;
pub mod meter;
pub mod shard;
pub mod table;
pub mod validate;
pub mod wal;

pub use bulk::{BulkLoader, IngestStats};
pub use csv::{dump_csv, load_csv};
pub use database::{Database, IndexSpec, Prepare, PreparedWrite};
pub use index::{HashIndex, Postings};
pub use meter::Meter;
pub use shard::{RelationShard, RowOp};
pub use table::Table;
pub use validate::{discover_bound, validate, Violation};
pub use wal::{WalOp, WalSink};
