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
//!   bind → execute → respond) over a thread-local span stack, enabled
//!   per server ([`MetricsRegistry::set_tracing`]) or per thread
//!   ([`span::trace_thread`]); one relaxed load and a branch when off.
//! * [`Probe`] / [`OpProfile`] — per-operator profiling. The columnar
//!   interpreter is generic over [`Probe`]; the [`NoProbe`]
//!   monomorphization (`ENABLED = false`) compiles every probe site away,
//!   while a [`Profiler`] times each operator step with row counts.
//! * [`MetricsSnapshot`] — an owned, mergeable snapshot with hand-rolled
//!   JSON and Prometheus-style text expositions (serde-free).
//!
//! ```
//! use bcq_telemetry::{LaneKind, MetricsRegistry};
//!
//! let reg = MetricsRegistry::new();
//! reg.record_request(LaneKind::Bounded, 870, 4); // 870 ns, |D_Q| = 4
//! let snap = reg.snapshot();
//! assert_eq!(snap.lane(LaneKind::Bounded).latency.count(), 1);
//! assert!(snap.to_json().contains("\"bounded\""));
//! ```

pub mod export;
pub mod hist;
pub mod metrics;
pub mod profile;
pub mod span;

pub use export::{
    AdmissionSnapshot, GaugeSnapshot, IngestSnapshot, LaneSnapshot, MetricsSnapshot, PhaseSnapshot,
    PlanCacheSnapshot, SqlSnapshot, WalSnapshot, WriteSnapshot,
};
pub use hist::{HistSnapshot, Histogram};
pub use metrics::{Counter, LaneKind, MetricsRegistry, NUM_LANES};
pub use profile::{NoProbe, OpProfile, Probe, Profiler, StepKind, StepProfile};
pub use span::{trace_thread, Phase, SpanGuard, ThreadTraceGuard, NUM_PHASES};
