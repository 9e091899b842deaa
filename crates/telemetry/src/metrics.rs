//! The always-on metrics registry: sharded atomic counters plus the
//! per-lane latency histograms, all preallocated at construction so the
//! record paths never allocate, lock, or branch beyond one enabled check.
//!
//! The serving hot path calls exactly one method, [`MetricsRegistry::
//! record_request`]: an enabled load, one histogram `fetch_add`, and one
//! sharded-counter `fetch_add` — a handful of nanoseconds against a
//! sub-microsecond request. Everything else (write path, admission
//! verdicts, view re-evaluation) records off the latency-critical path,
//! through [`MetricsRegistry::add`] and [`MetricsRegistry::record`]: the
//! metric is a [`Count`] or [`Hist`] variant, declared by its table row in
//! [`crate::export`], and its position is the slot it indexes.

use crate::export::{Count, Hist, LaneSnapshot, MetricsSnapshot, PhaseSnapshot};
use crate::hist::Histogram;
use crate::span::{Phase, NUM_PHASES};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Number of shards per [`Counter`]; each shard sits on its own cache
/// line so writer threads do not bounce a shared line.
const COUNTER_SHARDS: usize = 8;

#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_SHARD: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

/// The calling thread's counter shard, assigned round-robin on first use.
#[inline]
fn thread_shard() -> usize {
    THREAD_SHARD.with(|c| {
        let s = c.get();
        if s != usize::MAX {
            return s;
        }
        let s = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % COUNTER_SHARDS;
        c.set(s);
        s
    })
}

/// A sharded atomic counter: increments land on the calling thread's
/// cache-line-padded shard (one relaxed `fetch_add`, no contention across
/// threads on distinct shards); reads sum the shards.
#[derive(Default)]
pub(crate) struct Counter {
    shards: [PaddedU64; COUNTER_SHARDS],
}

impl Counter {
    /// Adds `n` on the calling thread's shard. Wait-free.
    #[inline]
    pub(crate) fn add(&self, n: u64) {
        self.shards[thread_shard()]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// The current total across all shards.
    pub(crate) fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// The serving lane a request executes on: how a prepared query runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Effectively bounded: compiled plan, `eval_dq` data plane. Per-request
    /// cost independent of `|D|`.
    Bounded,
    /// A certified RA expression, evaluated boundedly through its compiled
    /// skeleton: a parameterized plan per block, membership probes
    /// included.
    BoundedRa,
    /// Not effectively bounded: admitted onto the conventional baseline
    /// under a hard work budget (never under a strict admission policy).
    /// Exposed under the label `budgeted`.
    Unbounded,
}

/// Number of serving lanes tracked by the registry.
pub const NUM_LANES: usize = 3;

impl Lane {
    /// All lanes, in registry index order.
    pub const ALL: [Lane; NUM_LANES] = [Lane::Bounded, Lane::BoundedRa, Lane::Unbounded];

    /// The lane's slot in the registry's per-lane arrays.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable label used in the JSON / Prometheus expositions.
    pub fn label(self) -> &'static str {
        match self {
            Lane::Bounded => "bounded",
            Lane::BoundedRa => "bounded_ra",
            Lane::Unbounded => "budgeted",
        }
    }
}

impl std::fmt::Display for Lane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The lock-free metrics registry. One per `Server`; shared by reference
/// with every session and recorded into concurrently.
pub struct MetricsRegistry {
    enabled: AtomicBool,
    pub(crate) tracing: AtomicBool,
    /// End-to-end request latency per lane (counts are derived from the
    /// histograms, so admitting a request costs one `fetch_add`, not two).
    lane_latency: [Histogram; NUM_LANES],
    /// Total tuples fetched per lane — aggregate `|D_Q|`, the paper's
    /// bounded-access measure, summed fleet-wide.
    lane_tuples: [Counter; NUM_LANES],
    /// One counter per [`Count`], at its slot.
    counters: [Counter; Count::ALL.len()],
    /// One histogram per [`Hist`], at its slot.
    histograms: [Histogram; Hist::ALL.len()],
    /// Traced phase timings (admit → … → respond); populated only while
    /// tracing is enabled.
    phases: [Histogram; NUM_PHASES],
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("enabled", &self.is_enabled())
            .field("tracing", &self.is_tracing())
            .finish()
    }
}

impl MetricsRegistry {
    /// A registry with metrics enabled and tracing disabled.
    pub fn new() -> Self {
        MetricsRegistry {
            enabled: AtomicBool::new(true),
            tracing: AtomicBool::new(false),
            lane_latency: Default::default(),
            lane_tuples: Default::default(),
            counters: std::array::from_fn(|_| Counter::default()),
            histograms: std::array::from_fn(|_| Histogram::new()),
            phases: Default::default(),
        }
    }

    /// Turns the always-on counters/histograms on or off (on by default;
    /// off exists for overhead measurement, not production).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// `true` if recording is on.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Enables or disables phase tracing for every request on this
    /// registry (see [`MetricsRegistry::span`]).
    pub fn set_tracing(&self, on: bool) {
        self.tracing.store(on, Ordering::Relaxed);
    }

    /// `true` if server-wide tracing is on.
    #[inline]
    pub fn is_tracing(&self) -> bool {
        self.tracing.load(Ordering::Relaxed)
    }

    /// The single hot-path record: one request's lane, end-to-end latency
    /// and tuples fetched. One enabled check, one histogram `fetch_add`,
    /// one sharded-counter `fetch_add` — no allocation, no lock.
    #[inline]
    pub fn record_request(&self, lane: Lane, latency_ns: u64, tuples_fetched: u64) {
        if !self.is_enabled() {
            return;
        }
        let i = lane.index();
        self.lane_latency[i].record(latency_ns);
        self.lane_tuples[i].add(tuples_fetched);
    }

    /// Adds `n` to one counter, if recording is on: one enabled check and
    /// one sharded-counter `fetch_add`.
    #[inline]
    pub fn add(&self, metric: Count, n: u64) {
        if self.is_enabled() {
            self.counters[metric as usize].add(n);
        }
    }

    /// Records one value into one histogram, if recording is on.
    #[inline]
    pub fn record(&self, metric: Hist, value: u64) {
        if self.is_enabled() {
            self.histograms[metric as usize].record(value);
        }
    }

    /// The histogram a traced phase records into.
    pub(crate) fn phase_hist(&self, phase: Phase) -> &Histogram {
        &self.phases[phase.index()]
    }

    /// A point-in-time snapshot of every registry series. The rows the
    /// registry does not record are zero; the server samples them from
    /// their sources afterwards ([`MetricsSnapshot::sample`]).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let lanes = Lane::ALL.iter().map(|&lane| LaneSnapshot {
            lane,
            latency: self.lane_latency[lane.index()].snapshot(),
            tuples_fetched: self.lane_tuples[lane.index()].get(),
        });
        let phases = Phase::ALL.iter().map(|&phase| PhaseSnapshot {
            phase,
            timings: self.phase_hist(phase).snapshot(),
        });
        let mut snap = MetricsSnapshot::new(lanes.collect(), phases.collect());
        snap.sample(|m: Count| self.counters[m as usize].get());
        snap.sample(|m: Hist| self.histograms[m as usize].snapshot());
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_threads() {
        use std::sync::Arc;
        let c = Arc::new(Counter::default());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.add(1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 40_000);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let r = MetricsRegistry::new();
        r.set_enabled(false);
        r.record_request(Lane::Bounded, 500, 3);
        for &m in Count::ALL {
            r.add(m, 2);
        }
        for &m in Hist::ALL {
            r.record(m, 1000);
        }
        let snap = r.snapshot();
        assert_eq!(snap.lane(Lane::Bounded).latency.count(), 0);
        assert_eq!(snap.lane(Lane::Bounded).tuples_fetched, 0);
        assert_eq!(snap.to_json(), MetricsRegistry::new().snapshot().to_json());

        r.set_enabled(true);
        r.record_request(Lane::Bounded, 500, 3);
        let snap = r.snapshot();
        assert_eq!(snap.lane(Lane::Bounded).latency.count(), 1);
        assert_eq!(snap.lane(Lane::Bounded).tuples_fetched, 3);
    }

    #[test]
    fn per_lane_series_are_independent() {
        let r = MetricsRegistry::new();
        r.record_request(Lane::Bounded, 100, 1);
        r.record_request(Lane::Bounded, 200, 1);
        r.record_request(Lane::Unbounded, 9_000, 50);
        let snap = r.snapshot();
        assert_eq!(snap.lane(Lane::Bounded).latency.count(), 2);
        assert_eq!(snap.lane(Lane::BoundedRa).latency.count(), 0);
        assert_eq!(snap.lane(Lane::Unbounded).latency.count(), 1);
        assert_eq!(snap.lane(Lane::Unbounded).tuples_fetched, 50);
        assert_eq!(snap.lane(Lane::Bounded).tuples_fetched, 2);
    }
}
