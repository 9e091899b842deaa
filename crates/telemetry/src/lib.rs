#![warn(missing_docs)]
//! # bcq-telemetry — zero-overhead observability for the serving tier
//!
//! The engine proves boundedness *per request* (the storage `Meter`'s
//! `|D_Q|` accounting in `RequestStats`); this crate aggregates it
//! *fleet-wide* without perturbing the hot path the numbers describe:
//!
//! * [`MetricsRegistry`] — always-on, lock-free counters and latency
//!   histograms. The serving path records one request with a single
//!   enabled check, one histogram `fetch_add` and one sharded-counter
//!   `fetch_add`: no lock, no allocation, a handful of nanoseconds.
//! * [`Histogram`] — HDR-style log-linear buckets (unit resolution below
//!   2⁵, then 32 linear sub-buckets per power-of-two octave: ≤ 3.1 %
//!   relative error), fixed layout so snapshots merge exactly.
//! * [`Phase`] spans — request tracing (admit → cache-lookup → compile →
//!   bind → execute → respond), enabled per server
//!   ([`MetricsRegistry::set_tracing`]); one relaxed load and a branch
//!   when off.
//! * [`Probe`] / [`OpProfile`] — per-operator profiling. The columnar
//!   interpreter is generic over [`Probe`]; the [`NoProbe`]
//!   monomorphization (`ENABLED = false`) compiles every probe site away,
//!   while a [`Profiler`] times each operator step with row counts.
//! * [`MetricsSnapshot`] — an owned, mergeable snapshot with hand-rolled
//!   JSON and Prometheus-style text expositions (serde-free). Each section
//!   is declared as one table of metrics (field, kind, source, JSON key,
//!   Prometheus name) that filling, merging and both expositions walk, so
//!   a new metric is one row plus the line that counts it. A row the
//!   registry records names a [`Count`] or [`Hist`] slot
//!   ([`MetricsRegistry::add`], [`MetricsRegistry::record`]); a row
//!   sampled from the plan cache, the WAL or the database names a
//!   [`FromCache`], [`FromWal`] or [`FromDb`] variant, which that source's
//!   one fill function matches on ([`MetricsSnapshot::sample`]).
//! * [`Lane`] — the serving lane a request runs on, shared with
//!   `bcq-service`, which re-exports it.
//!
//! ```
//! use bcq_telemetry::{Lane, MetricsRegistry};
//!
//! let reg = MetricsRegistry::new();
//! reg.record_request(Lane::Bounded, 870, 4); // 870 ns, |D_Q| = 4
//! let snap = reg.snapshot();
//! assert_eq!(snap.lane(Lane::Bounded).latency.count(), 1);
//! assert!(snap.to_json().contains("\"bounded\""));
//! ```

pub mod export;
pub mod hist;
pub mod metrics;
pub mod profile;
pub mod span;

pub use export::{
    AdmissionSnapshot, Count, FromCache, FromDb, FromWal, GaugeSnapshot, Hist, IngestSnapshot,
    LaneSnapshot, MetricsSnapshot, PhaseSnapshot, PlanCacheSnapshot, Source, SqlSnapshot,
    WalSnapshot, WriteSnapshot,
};
pub use hist::{HistSnapshot, Histogram};
pub use metrics::{Lane, MetricsRegistry, NUM_LANES};
pub use profile::{NoProbe, OpProfile, Probe, Profiler, StepKind, StepProfile};
pub use span::{Phase, SpanGuard, NUM_PHASES};
