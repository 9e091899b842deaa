//! The always-on metrics registry: sharded atomic counters plus the
//! per-lane latency histograms, all preallocated at construction so the
//! record paths never allocate, lock, or branch beyond one enabled check.
//!
//! The serving hot path calls exactly one method, [`MetricsRegistry::
//! record_request`]: an enabled load, one histogram `fetch_add`, and one
//! sharded-counter `fetch_add` — a handful of nanoseconds against a
//! sub-microsecond request. Everything else (write path, admission
//! verdicts, view re-evaluation) records off the latency-critical path.

use crate::hist::Histogram;
use crate::span::Phase;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Number of shards per [`Counter`]; each shard sits on its own cache
/// line so writer threads do not bounce a shared line.
pub const COUNTER_SHARDS: usize = 8;

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
pub struct Counter {
    shards: [PaddedU64; COUNTER_SHARDS],
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Counter({})", self.get())
    }
}

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds `n` on the calling thread's shard. Wait-free.
    #[inline]
    pub fn add(&self, n: u64) {
        self.shards[thread_shard()]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1 on the calling thread's shard.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current total across all shards.
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// The serving lane a request executed on, as telemetry sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneKind {
    /// Effectively bounded queries on the compiled `eval_dq` fast path.
    Bounded,
    /// Certified RA expressions.
    BoundedRa,
    /// Unbounded queries admitted onto the budgeted baseline.
    Budgeted,
}

/// Number of serving lanes tracked by the registry.
pub const NUM_LANES: usize = 3;

impl LaneKind {
    /// All lanes, in registry index order.
    pub const ALL: [LaneKind; NUM_LANES] =
        [LaneKind::Bounded, LaneKind::BoundedRa, LaneKind::Budgeted];

    /// The lane's slot in the registry's per-lane arrays.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable label used in the JSON / Prometheus expositions.
    pub fn label(self) -> &'static str {
        match self {
            LaneKind::Bounded => "bounded",
            LaneKind::BoundedRa => "bounded_ra",
            LaneKind::Budgeted => "budgeted",
        }
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
    /// Query texts received on the SQL path that lexed (each goes on to
    /// a plan-cache lookup by shape; hits and misses are the cache's).
    pub sql_requests: Counter,
    /// Literals lifted out of those texts into parameter slots.
    pub sql_literals_lifted: Counter,
    /// Requests refused by admission control (strict policy).
    pub rejected: Counter,
    /// Budgeted-lane requests that finished within the work cap.
    pub budget_completed: Counter,
    /// Budgeted-lane requests that exhausted the cap (no answer).
    pub budget_exhausted: Counter,
    /// Maintained single-row inserts.
    pub inserts: Counter,
    /// Maintained single-row deletes that found a row.
    pub deletes: Counter,
    /// Out-of-band bulk updates (views recompute lazily afterwards).
    pub bulk_updates: Counter,
    /// Rows appended through the bulk-ingest fast path.
    pub ingest_rows: Counter,
    /// Chunks appended by bulk ingest (one WAL record each).
    pub ingest_chunks: Counter,
    /// Cell bytes appended by bulk ingest.
    pub ingest_bytes: Counter,
    /// Bulk-ingest chunks whose every value was already interned — the
    /// steady state where encoding never copies the symbol table.
    pub ingest_intern_batch_hits: Counter,
    /// Nanoseconds spent rebuilding indexes after bulk loads.
    pub index_build_ns: Counter,
    /// Write-path latency (insert + delete, end to end).
    write_latency: Histogram,
    /// Nanoseconds writers spent waiting for a per-relation write latch
    /// (0-wait uncontended acquisitions are not recorded — the series
    /// measures contention, not traffic).
    writer_lock_wait: Histogram,
    /// Write-latch acquisitions that found another writer holding the
    /// same relation's latch.
    pub write_conflicts: Counter,
    /// Nanoseconds spent inside the exclusive commit section (the shard
    /// pointer swap + epoch publication — excludes encoding, index
    /// maintenance, and fsyncs by construction).
    commit_hold: Histogram,
    /// Commits made durable per group-commit fsync batch (recorded by the
    /// flush leader with the batch size).
    group_commit_batch: Histogram,
    /// View re-evaluations: reads that found the cached answer behind a
    /// relation the view reads.
    pub view_recomputes: Counter,
    /// Traced phase timings (admit → … → respond); populated only while
    /// tracing is enabled.
    phases: [Histogram; crate::span::NUM_PHASES],
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
            sql_requests: Counter::new(),
            sql_literals_lifted: Counter::new(),
            rejected: Counter::new(),
            budget_completed: Counter::new(),
            budget_exhausted: Counter::new(),
            inserts: Counter::new(),
            deletes: Counter::new(),
            bulk_updates: Counter::new(),
            ingest_rows: Counter::new(),
            ingest_chunks: Counter::new(),
            ingest_bytes: Counter::new(),
            ingest_intern_batch_hits: Counter::new(),
            index_build_ns: Counter::new(),
            write_latency: Histogram::new(),
            writer_lock_wait: Histogram::new(),
            write_conflicts: Counter::new(),
            commit_hold: Histogram::new(),
            group_commit_batch: Histogram::new(),
            view_recomputes: Counter::new(),
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
    pub fn record_request(&self, lane: LaneKind, latency_ns: u64, tuples_fetched: u64) {
        if !self.is_enabled() {
            return;
        }
        let i = lane.index();
        self.lane_latency[i].record(latency_ns);
        self.lane_tuples[i].add(tuples_fetched);
    }

    /// Records one query text received on the SQL path and how many of
    /// its literals were lifted into slots.
    #[inline]
    pub fn record_sql(&self, literals_lifted: u64) {
        if !self.is_enabled() {
            return;
        }
        self.sql_requests.inc();
        self.sql_literals_lifted.add(literals_lifted);
    }

    /// Records a budgeted-lane verdict (completed within the cap or
    /// exhausted it).
    #[inline]
    pub fn record_budget_verdict(&self, completed: bool) {
        if !self.is_enabled() {
            return;
        }
        if completed {
            self.budget_completed.inc();
        } else {
            self.budget_exhausted.inc();
        }
    }

    /// Records an admission rejection.
    #[inline]
    pub fn record_rejected(&self) {
        if self.is_enabled() {
            self.rejected.inc();
        }
    }

    /// Records one bulk-ingest bracket: rows/chunks/bytes appended, how
    /// many chunks hit the already-interned batch-encode fast path, and
    /// the nanoseconds the post-load index rebuild took. Off the
    /// latency-critical path — called once per bulk load, not per row.
    pub fn record_ingest(
        &self,
        rows: u64,
        chunks: u64,
        bytes: u64,
        intern_batch_hits: u64,
        index_build_ns: u64,
    ) {
        if !self.is_enabled() {
            return;
        }
        self.ingest_rows.add(rows);
        self.ingest_chunks.add(chunks);
        self.ingest_bytes.add(bytes);
        self.ingest_intern_batch_hits.add(intern_batch_hits);
        self.index_build_ns.add(index_build_ns);
    }

    /// Records one row write (insert or delete) with its end-to-end
    /// latency.
    pub fn record_write(&self, insert: bool, latency_ns: u64) {
        if !self.is_enabled() {
            return;
        }
        if insert {
            self.inserts.inc();
        } else {
            self.deletes.inc();
        }
        self.write_latency.record(latency_ns);
    }

    /// Records one per-relation write-latch acquisition: the wait (only
    /// when there was one) and whether it conflicted with another writer
    /// on the same relation.
    #[inline]
    pub fn record_lock_wait(&self, wait_ns: u64, contended: bool) {
        if !self.is_enabled() || !contended {
            return;
        }
        self.writer_lock_wait.record(wait_ns);
        self.write_conflicts.inc();
    }

    /// Records the time one write spent inside the exclusive commit
    /// section.
    #[inline]
    pub fn record_commit_hold(&self, ns: u64) {
        if self.is_enabled() {
            self.commit_hold.record(ns);
        }
    }

    /// Records one group-commit fsync batch: how many commits the flush
    /// newly made durable.
    #[inline]
    pub fn record_group_commit(&self, batch: u64) {
        if self.is_enabled() {
            self.group_commit_batch.record(batch);
        }
    }

    /// The write-latch wait histogram (export use).
    pub fn writer_lock_wait_hist(&self) -> &Histogram {
        &self.writer_lock_wait
    }

    /// The commit-section hold-time histogram (export use).
    pub fn commit_hold_hist(&self) -> &Histogram {
        &self.commit_hold
    }

    /// The group-commit batch-size histogram (export use).
    pub fn group_commit_batch_hist(&self) -> &Histogram {
        &self.group_commit_batch
    }

    /// Direct access to a lane's latency histogram (bench/export use).
    pub fn lane_latency(&self, lane: LaneKind) -> &Histogram {
        &self.lane_latency[lane.index()]
    }

    /// Total tuples fetched on one lane so far.
    pub fn lane_tuples(&self, lane: LaneKind) -> u64 {
        self.lane_tuples[lane.index()].get()
    }

    /// The histogram a traced phase records into (also read by tests and
    /// the exporter).
    pub fn phase_hist(&self, phase: Phase) -> &Histogram {
        &self.phases[phase.index()]
    }

    pub(crate) fn write_latency_hist(&self) -> &Histogram {
        &self.write_latency
    }

    /// A point-in-time snapshot of every registry series. Cache and
    /// storage gauges are owned by the server, which fills them in after
    /// calling this (see the `gauges`/`cache` fields of
    /// [`crate::MetricsSnapshot`]).
    pub fn snapshot(&self) -> crate::MetricsSnapshot {
        crate::export::snapshot_of(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_threads() {
        use std::sync::Arc;
        let c = Arc::new(Counter::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
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
        r.record_request(LaneKind::Bounded, 500, 3);
        r.record_budget_verdict(true);
        r.record_rejected();
        r.record_sql(2);
        r.record_write(true, 1000);
        assert_eq!(r.sql_requests.get(), 0);
        assert_eq!(r.sql_literals_lifted.get(), 0);
        assert_eq!(r.lane_latency(LaneKind::Bounded).snapshot().count(), 0);
        assert_eq!(r.lane_tuples(LaneKind::Bounded), 0);
        assert_eq!(r.budget_completed.get(), 0);
        assert_eq!(r.rejected.get(), 0);
        assert_eq!(r.inserts.get(), 0);

        r.set_enabled(true);
        r.record_request(LaneKind::Bounded, 500, 3);
        assert_eq!(r.lane_latency(LaneKind::Bounded).snapshot().count(), 1);
        assert_eq!(r.lane_tuples(LaneKind::Bounded), 3);
    }

    #[test]
    fn per_lane_series_are_independent() {
        let r = MetricsRegistry::new();
        r.record_request(LaneKind::Bounded, 100, 1);
        r.record_request(LaneKind::Bounded, 200, 1);
        r.record_request(LaneKind::Budgeted, 9_000, 50);
        r.record_budget_verdict(false);
        assert_eq!(r.lane_latency(LaneKind::Bounded).snapshot().count(), 2);
        assert_eq!(r.lane_latency(LaneKind::BoundedRa).snapshot().count(), 0);
        assert_eq!(r.lane_latency(LaneKind::Budgeted).snapshot().count(), 1);
        assert_eq!(r.lane_tuples(LaneKind::Budgeted), 50);
        assert_eq!(r.budget_exhausted.get(), 1);
        assert_eq!(r.budget_completed.get(), 0);
    }
}
