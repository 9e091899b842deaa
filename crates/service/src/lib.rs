#![warn(missing_docs)]
//! # bcq-service — the prepared-query serving layer
//!
//! The paper's central property — an effectively bounded query compiles
//! *once* into a plan whose execution cost is independent of `|D|` — is
//! exactly what a high-QPS serving tier wants: pay for
//! parse → normalize → `ebcheck` → `qplan` at **prepare** time, then
//! execute the cached plan per request for pennies. This crate is that
//! tier:
//!
//! * [`PreparedQuery`] — a query template compiled once, with its
//!   placeholders lifted into parameter slots
//!   ([`bcq_core::qplan::qplan_template`]) so one plan serves many
//!   bindings, and classified into a [`Lane`]:
//!   [`Lane::Bounded`] (the `eval_dq` fast path), [`Lane::BoundedRa`]
//!   (certified RA expressions: a skeleton with a compiled plan per SPC
//!   block, membership probes included), or [`Lane::Unbounded`]
//!   (admitted onto the budgeted baseline, or rejected outright under
//!   [`AdmissionPolicy::Strict`]).
//! * [`PlanCache`] — an LRU keyed on the normalized query fingerprint
//!   (or, for query texts, on the text's **shape**: the text with its
//!   `WHERE` constants lifted into slots), with hit/miss/eviction
//!   counters. A plan depends on the query and the access schema, never
//!   on the data, so an entry is never stale and no write touches the
//!   cache.
//! * [`SharedDb`] — single-writer/multi-reader **epoch snapshots** over
//!   the relation-sharded [`bcq_storage::Database`]: readers grab an
//!   `Arc` snapshot and never block; writers copy-on-write only the
//!   touched relation's shard and advance its component of the epoch
//!   **vector clock**, which a snapshot freezes and a registered view's
//!   cached *answer* is stamped with.
//! * [`Server`] / [`Session`] — the request API, with per-request
//!   [`RequestStats`] (lane taken, cache hit, tuples fetched, budget
//!   verdict, epoch served).
//!
//! ## Quick start
//!
//! ```
//! use bcq_core::prelude::*;
//! use bcq_service::{Server, ServerConfig};
//! use bcq_storage::Database;
//! use std::collections::BTreeMap;
//! use std::sync::Arc;
//!
//! let catalog = Catalog::from_names(&[
//!     ("friends", &["user_id", "friend_id"]),
//! ]).unwrap();
//! let mut access = AccessSchema::new(catalog.clone());
//! access.add("friends", &["user_id"], &["friend_id"], 5000).unwrap();
//!
//! let mut db = Database::new(catalog.clone());
//! db.insert("friends", &[Value::str("u0"), Value::str("u1")]).unwrap();
//!
//! // The server builds all declared indices and takes ownership.
//! let server = Arc::new(Server::new(db, access, ServerConfig::default()));
//!
//! // A template: prepare once, serve many bindings.
//! let template = SpcQuery::builder(catalog, "friends_of")
//!     .atom("friends", "f")
//!     .eq_param(("f", "user_id"), "uid")
//!     .project(("f", "friend_id"))
//!     .build().unwrap();
//!
//! let mut session = server.session();
//! let mut bind = BTreeMap::new();
//! bind.insert("uid".to_string(), Value::str("u0"));
//! let resp = session.query(&template, &bind).unwrap();
//! assert_eq!(resp.rows().unwrap().len(), 1);
//! assert!(resp.stats.lane == bcq_service::Lane::Bounded);
//! ```
//!
//! Everything here layers on public APIs of the sibling crates; the only
//! state of its own is the cache, the snapshot handle, and the registered
//! views.

pub mod cache;
pub mod net;
pub mod prepared;
pub mod server;
pub mod shared;

pub use cache::{CacheStats, PlanCache};
pub use net::{NetClient, NetError, NetServer};
pub use prepared::{query_fingerprint, ra_fingerprint, PreparedQuery};
pub use server::{
    AdmissionPolicy, BudgetVerdict, DurabilityConfig, Outcome, Prepared, RequestStats, Response,
    Server, ServerConfig, ServiceError, Session, ViewId,
};
pub use shared::SharedDb;
// Re-exported so a durable deployment can be opened (storage backend,
// fsync policy, recovery report) without naming `bcq-durability` itself.
pub use bcq_durability::{
    DirLog, LogStorage, MemLog, RecoveryReport, SyncPolicy, WalStats, WalWriter,
};
// Re-exported so downstream users of the serving tier can read
// [`RequestStats::lane`], [`Server::metrics_snapshot`] and
// [`Server::execute_profiled`] without naming `bcq-telemetry` themselves.
pub use bcq_telemetry::{
    Lane, MetricsRegistry, MetricsSnapshot, OpProfile, Phase, StepKind, StepProfile,
};

/// Convenient alias used across the crate.
pub type Result<T> = std::result::Result<T, server::ServiceError>;
