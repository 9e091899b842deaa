#![warn(missing_docs)]
//! # bounded-cq — Bounded Conjunctive Queries
//!
//! A Rust reproduction of *Bounded Conjunctive Queries* (Cao, Fan, Wo, Yu —
//! PVLDB 7(12), 2014): decide whether an SPC query can be answered by
//! fetching a **bounded** amount of data — independent of how big the
//! database is — under an *access schema* of cardinality constraints and
//! indices, and if so, generate and execute the bounded query plan.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`core`] — queries, access schemas, `BCheck`/`EBCheck`,
//!   dominating parameters, `QPlan`, `M`-boundedness, Lemma 1 — plus the
//!   interned-row data plane ([`bcq_core::symbols`], [`bcq_core::row`]).
//! * [`storage`] — in-memory tables and constraint indices
//!   over interned rows, `D |= A` validation, constraint discovery.
//! * [`exec`] — the bounded executor `evalDQ`, the
//!   conventional-DBMS baseline, and the columnar program interpreter
//!   ([`bcq_exec::pipeline`]) both run on.
//! * [`service`] — the prepared-query serving layer: compile
//!   a template once, cache the plan, execute per request against epoch
//!   snapshots under admission control.
//! * [`telemetry`] — serving-tier observability: always-on lock-free
//!   metrics, opt-in request tracing, zero-cost per-operator profiling.
//! * [`workload`] — the TFACC / MOT / TPCH experimental
//!   workloads of Section 6.
//!
//! ## Example: the paper's photo-tagging query
//!
//! ```
//! use bounded_cq::prelude::*;
//!
//! let catalog = Catalog::from_names(&[
//!     ("in_album", &["photo_id", "album_id"]),
//!     ("friends", &["user_id", "friend_id"]),
//!     ("tagging", &["photo_id", "tagger_id", "taggee_id"]),
//! ])?;
//!
//! // Access schema A0: Facebook-style limits plus indices (Example 2).
//! let mut a0 = AccessSchema::new(catalog.clone());
//! a0.add("in_album", &["album_id"], &["photo_id"], 1000)?;
//! a0.add("friends", &["user_id"], &["friend_id"], 5000)?;
//! a0.add("tagging", &["photo_id", "taggee_id"], &["tagger_id"], 1)?;
//!
//! // Q0: photos in album a0 in which u0 is tagged by a friend (Example 1).
//! let q0 = SpcQuery::builder(catalog.clone(), "Q0")
//!     .atom("in_album", "ia").atom("friends", "f").atom("tagging", "t")
//!     .eq_const(("ia", "album_id"), "a0")
//!     .eq_const(("f", "user_id"), "u0")
//!     .eq(("ia", "photo_id"), ("t", "photo_id"))
//!     .eq(("t", "tagger_id"), ("f", "friend_id"))
//!     .eq_const(("t", "taggee_id"), "u0")
//!     .project(("ia", "photo_id"))
//!     .build()?;
//!
//! assert!(ebcheck(&q0, &a0).effectively_bounded);
//! let plan = qplan(&q0, &a0)?;
//! assert_eq!(plan.cost_bound(), 7000); // at most 7000 tuples, ever
//!
//! // Execute it on a database.
//! let mut db = Database::new(catalog);
//! db.insert("in_album", &[Value::str("p1"), Value::str("a0")])?;
//! db.insert("friends", &[Value::str("u0"), Value::str("u1")])?;
//! db.insert("tagging", &[Value::str("p1"), Value::str("u1"), Value::str("u0")])?;
//! db.build_indexes(&a0);
//! let out = eval_dq(&db, &plan, &a0)?;
//! assert!(out.result.contains(&[Value::str("p1")]));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use bcq_core as core;
pub use bcq_durability as durability;
pub use bcq_exec as exec;
pub use bcq_service as service;
pub use bcq_storage as storage;
pub use bcq_telemetry as telemetry;
pub use bcq_workload as workload;

/// One-stop imports: everything from the core prelude plus the storage,
/// executor, and serving-layer entry points.
pub mod prelude {
    pub use bcq_core::prelude::*;
    pub use bcq_exec::{
        baseline, baseline_interpreted, eval_dq, eval_dq_interpreted, eval_dq_with,
        eval_dq_with_interpreted, eval_ra, materialize_views, BaselineMode, BaselineOptions,
        BaselineOutcome, ExecOutcome, ParamEnv, RaOutcome, ResultSet,
    };
    pub use bcq_service::{
        trace_thread, AdmissionPolicy, BudgetVerdict, DirLog, DurabilityConfig, Lane, LaneKind,
        MemLog, MetricsRegistry, MetricsSnapshot, NetClient, NetError, NetServer, OpProfile,
        Outcome, Phase, PreparedQuery, RecoveryReport, RequestStats, Response, Server,
        ServerConfig, ServiceError, Session, SessionStats, SharedDb, StepKind, StepProfile,
        SyncPolicy, ViewId, WalStats,
    };
    pub use bcq_storage::{
        discover_bound, dump_csv, load_csv, validate, Database, HashIndex, Meter, RelationShard,
        Table,
    };
    pub use bcq_workload::{
        all_datasets, load_par, load_range_par, Dataset, ParLoadOptions, WorkloadQuery,
    };
}
