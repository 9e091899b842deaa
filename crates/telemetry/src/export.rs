//! Snapshot and exposition: a mergeable, owned [`MetricsSnapshot`] with
//! hand-rolled JSON and Prometheus-style text renderings (no serde — the
//! formats are small and fixed, and the crate stays dependency-free).
//!
//! The registry fills in its own series ([`MetricsRegistry::snapshot`]);
//! the serving layer owns the plan cache and the storage gauges and fills
//! those fields itself before exporting.

use crate::hist::HistSnapshot;
use crate::metrics::{LaneKind, MetricsRegistry};
use crate::span::Phase;
use std::fmt::Write as _;

/// One lane's request series.
#[derive(Debug, Clone)]
pub struct LaneSnapshot {
    /// Which lane.
    pub lane: LaneKind,
    /// End-to-end request latency distribution (count = requests served).
    pub latency: HistSnapshot,
    /// Total tuples fetched on the lane (aggregate `|D_Q|`).
    pub tuples_fetched: u64,
}

/// One traced phase's timing distribution.
#[derive(Debug, Clone)]
pub struct PhaseSnapshot {
    /// Which phase.
    pub phase: Phase,
    /// Phase wall-clock distribution (empty unless tracing ran).
    pub timings: HistSnapshot,
}

/// The SQL text path: requests received and literals lifted into slots.
/// How many of those requests compiled is the plan cache's `misses`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SqlSnapshot {
    /// Query texts received that lexed.
    pub requests: u64,
    /// Literals lifted out of those texts into parameter slots.
    pub literals_lifted: u64,
}

/// Admission-control verdict counts.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdmissionSnapshot {
    /// Requests refused outright (strict policy).
    pub rejected: u64,
    /// Budgeted requests that finished within the cap.
    pub budget_completed: u64,
    /// Budgeted requests that exhausted the cap.
    pub budget_exhausted: u64,
}

/// Plan-cache movement counters plus current occupancy. Filled by the
/// serving layer (the cache is not owned by the registry).
#[derive(Debug, Clone, Copy, Default)]
pub struct PlanCacheSnapshot {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Capacity evictions.
    pub evictions: u64,
    /// Live entries right now (gauge).
    pub entries: u64,
}

/// Write-path counters and latency.
#[derive(Debug, Clone, Default)]
pub struct WriteSnapshot {
    /// Maintained single-row inserts.
    pub inserts: u64,
    /// Maintained single-row deletes that found a row.
    pub deletes: u64,
    /// Out-of-band bulk updates.
    pub bulk_updates: u64,
    /// End-to-end write latency (inserts + deletes).
    pub latency: HistSnapshot,
    /// Nanoseconds writers waited for per-relation write latches
    /// (contended acquisitions only).
    pub lock_wait: HistSnapshot,
    /// Latch acquisitions that conflicted with a same-relation writer.
    pub conflicts: u64,
    /// Time spent inside the exclusive commit section (shard swap + epoch
    /// publication; excludes encoding, index maintenance, fsyncs).
    pub commit_hold: HistSnapshot,
    /// View re-evaluations forced by a stale cached answer.
    pub view_recomputes: u64,
    /// Relation shards cloned by copy-on-write since startup.
    pub cow_shard_clones: u64,
    /// Cells (row slots) copied by those clones — with `inserts` +
    /// `deletes`, the write-amplification numerator.
    pub cow_cells_cloned: u64,
}

/// Bulk-ingest fast-path counters (chunked column appends through the
/// storage layer's bulk loader, plus the deferred index rebuilds that
/// follow them). All but `index_build_ns` are counted where the rows land,
/// by the database, and filled in by the serving layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct IngestSnapshot {
    /// Rows appended through the bulk-ingest fast path.
    pub rows: u64,
    /// Chunks appended (one WAL record each).
    pub chunks: u64,
    /// Cell bytes appended.
    pub bytes: u64,
    /// Chunks whose every value was already interned (no symbol-table
    /// copy-on-write, no intern WAL records).
    pub intern_batch_hits: u64,
    /// Nanoseconds spent rebuilding indexes after bulk loads.
    pub index_build_ns: u64,
}

/// Durability-layer counters, filled by the serving layer from its WAL
/// writer (except `group_batch_sizes`, which the registry records as
/// flush leaders report their batches). All-zero when the server runs
/// without durability.
#[derive(Debug, Clone, Default)]
pub struct WalSnapshot {
    /// WAL records appended.
    pub records: u64,
    /// WAL bytes appended (framing included).
    pub bytes: u64,
    /// fsync batches issued (group commit collapses many records into one).
    pub fsyncs: u64,
    /// Group flushes led by an ack that covered ≥ 1 new commit.
    pub group_batches: u64,
    /// Commits covered by those group flushes.
    pub group_records: u64,
    /// Group-commit batch-size distribution (commits per flush).
    pub group_batch_sizes: HistSnapshot,
    /// Records replayed by the most recent recovery.
    pub replayed: u64,
    /// Checkpoints (snapshots) taken since startup.
    pub checkpoints: u64,
    /// Highest durable sequence number (gauge).
    pub last_seq: u64,
    /// Log bytes on storage since the last checkpoint cut (gauge).
    pub retained_bytes: u64,
    /// Bytes of the last snapshot written or restored (gauge).
    pub snapshot_bytes: u64,
}

/// Point-in-time storage gauges, filled by the serving layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct GaugeSnapshot {
    /// Relations in the catalog.
    pub relations: u64,
    /// Tuples stored across all relations.
    pub total_tuples: u64,
    /// Interned symbols in the shared symbol table.
    pub interner_symbols: u64,
    /// Distinct keys across all hash indices.
    pub index_keys: u64,
    /// Resident bytes of all hash indices (`HashIndex::approx_bytes`).
    pub index_bytes: u64,
    /// Resident bytes of all tables' cell storage.
    pub table_bytes: u64,
    /// Global database epoch.
    pub epoch: u64,
}

/// A complete, owned, mergeable metrics snapshot.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Per-lane request series, in [`LaneKind::ALL`] order.
    pub lanes: Vec<LaneSnapshot>,
    /// Traced phase timings, in [`Phase::ALL`] order.
    pub phases: Vec<PhaseSnapshot>,
    /// The SQL text path.
    pub sql: SqlSnapshot,
    /// Admission verdicts.
    pub admission: AdmissionSnapshot,
    /// Plan-cache movement (serving layer fills this).
    pub cache: PlanCacheSnapshot,
    /// Write path.
    pub writes: WriteSnapshot,
    /// Bulk-ingest fast path.
    pub ingest: IngestSnapshot,
    /// WAL / durability counters (serving layer fills this).
    pub wal: WalSnapshot,
    /// Storage gauges (serving layer fills this).
    pub gauges: GaugeSnapshot,
}

pub(crate) fn snapshot_of(reg: &MetricsRegistry) -> MetricsSnapshot {
    MetricsSnapshot {
        lanes: LaneKind::ALL
            .iter()
            .map(|&lane| LaneSnapshot {
                lane,
                latency: reg.lane_latency(lane).snapshot(),
                tuples_fetched: reg.lane_tuples(lane),
            })
            .collect(),
        phases: Phase::ALL
            .iter()
            .map(|&phase| PhaseSnapshot {
                phase,
                timings: reg.phase_hist(phase).snapshot(),
            })
            .collect(),
        sql: SqlSnapshot {
            requests: reg.sql_requests.get(),
            literals_lifted: reg.sql_literals_lifted.get(),
        },
        admission: AdmissionSnapshot {
            rejected: reg.rejected.get(),
            budget_completed: reg.budget_completed.get(),
            budget_exhausted: reg.budget_exhausted.get(),
        },
        cache: PlanCacheSnapshot::default(),
        writes: WriteSnapshot {
            inserts: reg.inserts.get(),
            deletes: reg.deletes.get(),
            bulk_updates: reg.bulk_updates.get(),
            latency: reg.write_latency.snapshot(),
            lock_wait: reg.writer_lock_wait.snapshot(),
            conflicts: reg.write_conflicts.get(),
            commit_hold: reg.commit_hold.snapshot(),
            view_recomputes: reg.view_recomputes.get(),
            cow_shard_clones: 0,
            cow_cells_cloned: 0,
        },
        ingest: IngestSnapshot {
            index_build_ns: reg.index_build_ns.get(),
            ..IngestSnapshot::default()
        },
        wal: WalSnapshot {
            group_batch_sizes: reg.group_commit_batch.snapshot(),
            ..WalSnapshot::default()
        },
        gauges: GaugeSnapshot::default(),
    }
}

impl MetricsSnapshot {
    /// Total requests served across all lanes.
    pub fn requests(&self) -> u64 {
        self.lanes.iter().map(|l| l.latency.count()).sum()
    }

    /// The snapshot of one lane.
    pub fn lane(&self, lane: LaneKind) -> &LaneSnapshot {
        &self.lanes[lane.index()]
    }

    /// Folds `other` into `self`: histograms and counters add (exact —
    /// the bucket layout is shared), gauges take the componentwise max.
    /// Merging snapshots from different servers yields the fleet view.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (a, b) in self.lanes.iter_mut().zip(&other.lanes) {
            a.latency.merge(&b.latency);
            a.tuples_fetched += b.tuples_fetched;
        }
        for (a, b) in self.phases.iter_mut().zip(&other.phases) {
            a.timings.merge(&b.timings);
        }
        self.sql.requests += other.sql.requests;
        self.sql.literals_lifted += other.sql.literals_lifted;
        self.admission.rejected += other.admission.rejected;
        self.admission.budget_completed += other.admission.budget_completed;
        self.admission.budget_exhausted += other.admission.budget_exhausted;
        self.cache.hits += other.cache.hits;
        self.cache.misses += other.cache.misses;
        self.cache.evictions += other.cache.evictions;
        self.cache.entries = self.cache.entries.max(other.cache.entries);
        self.writes.inserts += other.writes.inserts;
        self.writes.deletes += other.writes.deletes;
        self.writes.bulk_updates += other.writes.bulk_updates;
        self.writes.latency.merge(&other.writes.latency);
        self.writes.lock_wait.merge(&other.writes.lock_wait);
        self.writes.conflicts += other.writes.conflicts;
        self.writes.commit_hold.merge(&other.writes.commit_hold);
        self.writes.view_recomputes += other.writes.view_recomputes;
        self.writes.cow_shard_clones += other.writes.cow_shard_clones;
        self.writes.cow_cells_cloned += other.writes.cow_cells_cloned;
        self.ingest.rows += other.ingest.rows;
        self.ingest.chunks += other.ingest.chunks;
        self.ingest.bytes += other.ingest.bytes;
        self.ingest.intern_batch_hits += other.ingest.intern_batch_hits;
        self.ingest.index_build_ns += other.ingest.index_build_ns;
        self.wal.records += other.wal.records;
        self.wal.bytes += other.wal.bytes;
        self.wal.fsyncs += other.wal.fsyncs;
        self.wal.group_batches += other.wal.group_batches;
        self.wal.group_records += other.wal.group_records;
        self.wal
            .group_batch_sizes
            .merge(&other.wal.group_batch_sizes);
        self.wal.replayed += other.wal.replayed;
        self.wal.checkpoints += other.wal.checkpoints;
        self.wal.last_seq = self.wal.last_seq.max(other.wal.last_seq);
        self.wal.retained_bytes = self.wal.retained_bytes.max(other.wal.retained_bytes);
        self.wal.snapshot_bytes = self.wal.snapshot_bytes.max(other.wal.snapshot_bytes);
        self.gauges.relations = self.gauges.relations.max(other.gauges.relations);
        self.gauges.total_tuples = self.gauges.total_tuples.max(other.gauges.total_tuples);
        self.gauges.interner_symbols = self
            .gauges
            .interner_symbols
            .max(other.gauges.interner_symbols);
        self.gauges.index_keys = self.gauges.index_keys.max(other.gauges.index_keys);
        self.gauges.index_bytes = self.gauges.index_bytes.max(other.gauges.index_bytes);
        self.gauges.table_bytes = self.gauges.table_bytes.max(other.gauges.table_bytes);
        self.gauges.epoch = self.gauges.epoch.max(other.gauges.epoch);
    }

    /// Hand-rolled JSON rendering (stable key order, no dependencies).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(2048);
        s.push_str("{\n  \"lanes\": {");
        for (i, l) in self.lanes.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\n    \"{}\": {{\"count\": {}, \"tuples_fetched\": {}, \"latency_ns\": {}}}",
                l.lane.label(),
                l.latency.count(),
                l.tuples_fetched,
                json_hist(&l.latency),
            );
        }
        s.push_str("\n  },\n  \"phases\": {");
        let mut first = true;
        for p in &self.phases {
            if p.timings.count() == 0 {
                continue;
            }
            if !first {
                s.push(',');
            }
            first = false;
            let _ = write!(
                s,
                "\n    \"{}\": {{\"count\": {}, \"latency_ns\": {}}}",
                p.phase.label(),
                p.timings.count(),
                json_hist(&p.timings),
            );
        }
        let a = self.admission;
        let _ = write!(
            s,
            "\n  }},\n  \"sql\": {{\"requests\": {}, \"literals_lifted\": {}}},\n  \"admission\": {{\"rejected\": {}, \"budget_completed\": {}, \"budget_exhausted\": {}}},\n",
            self.sql.requests,
            self.sql.literals_lifted,
            a.rejected,
            a.budget_completed,
            a.budget_exhausted,
        );
        let c = self.cache;
        let _ = writeln!(
            s,
            "  \"plan_cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \"entries\": {}}},",
            c.hits, c.misses, c.evictions, c.entries,
        );
        let w = &self.writes;
        let _ = writeln!(
            s,
            "  \"writes\": {{\"inserts\": {}, \"deletes\": {}, \"bulk_updates\": {}, \"view_recomputes\": {}, \"cow_shard_clones\": {}, \"cow_cells_cloned\": {}, \"lock_conflicts\": {}, \"latency_ns\": {}, \"lock_wait_ns\": {}, \"commit_hold_ns\": {}}},",
            w.inserts,
            w.deletes,
            w.bulk_updates,
            w.view_recomputes,
            w.cow_shard_clones,
            w.cow_cells_cloned,
            w.conflicts,
            json_hist(&w.latency),
            json_hist(&w.lock_wait),
            json_hist(&w.commit_hold),
        );
        let ing = self.ingest;
        let _ = writeln!(
            s,
            "  \"ingest\": {{\"rows\": {}, \"chunks\": {}, \"bytes\": {}, \"intern_batch_hits\": {}, \"index_build_ns\": {}}},",
            ing.rows, ing.chunks, ing.bytes, ing.intern_batch_hits, ing.index_build_ns,
        );
        let wal = &self.wal;
        let _ = writeln!(
            s,
            "  \"wal\": {{\"records\": {}, \"bytes\": {}, \"fsyncs\": {}, \"group_batches\": {}, \"group_records\": {}, \"replayed\": {}, \"checkpoints\": {}, \"last_seq\": {}, \"retained_bytes\": {}, \"snapshot_bytes\": {}, \"group_batch_size\": {}}},",
            wal.records,
            wal.bytes,
            wal.fsyncs,
            wal.group_batches,
            wal.group_records,
            wal.replayed,
            wal.checkpoints,
            wal.last_seq,
            wal.retained_bytes,
            wal.snapshot_bytes,
            json_hist(&wal.group_batch_sizes),
        );
        let g = self.gauges;
        let _ = write!(
            s,
            "  \"gauges\": {{\"relations\": {}, \"total_tuples\": {}, \"interner_symbols\": {}, \"index_keys\": {}, \"index_bytes\": {}, \"table_bytes\": {}, \"epoch\": {}}}\n}}",
            g.relations,
            g.total_tuples,
            g.interner_symbols,
            g.index_keys,
            g.index_bytes,
            g.table_bytes,
            g.epoch,
        );
        s
    }

    /// Prometheus-style text exposition: counters as `*_total`, latency
    /// distributions as summaries with p50/p90/p99/p999 quantiles.
    pub fn to_prometheus(&self) -> String {
        let mut s = String::with_capacity(2048);
        s.push_str("# TYPE bcq_requests_total counter\n");
        for l in &self.lanes {
            let _ = writeln!(
                s,
                "bcq_requests_total{{lane=\"{}\"}} {}",
                l.lane.label(),
                l.latency.count()
            );
        }
        s.push_str("# TYPE bcq_tuples_fetched_total counter\n");
        for l in &self.lanes {
            let _ = writeln!(
                s,
                "bcq_tuples_fetched_total{{lane=\"{}\"}} {}",
                l.lane.label(),
                l.tuples_fetched
            );
        }
        s.push_str("# TYPE bcq_request_latency_ns summary\n");
        for l in &self.lanes {
            prom_summary(
                &mut s,
                "bcq_request_latency_ns",
                "lane",
                l.lane.label(),
                &l.latency,
            );
        }
        s.push_str("# TYPE bcq_phase_latency_ns summary\n");
        for p in &self.phases {
            if p.timings.count() > 0 {
                prom_summary(
                    &mut s,
                    "bcq_phase_latency_ns",
                    "phase",
                    p.phase.label(),
                    &p.timings,
                );
            }
        }
        let a = self.admission;
        for (name, v) in [
            ("bcq_sql_requests_total", self.sql.requests),
            ("bcq_sql_literals_lifted_total", self.sql.literals_lifted),
            ("bcq_admission_rejected_total", a.rejected),
            ("bcq_budget_completed_total", a.budget_completed),
            ("bcq_budget_exhausted_total", a.budget_exhausted),
        ] {
            let _ = writeln!(s, "# TYPE {name} counter\n{name} {v}");
        }
        let c = self.cache;
        for (name, v) in [
            ("bcq_plan_cache_hits_total", c.hits),
            ("bcq_plan_cache_misses_total", c.misses),
            ("bcq_plan_cache_evictions_total", c.evictions),
        ] {
            let _ = writeln!(s, "# TYPE {name} counter\n{name} {v}");
        }
        let _ = writeln!(
            s,
            "# TYPE bcq_plan_cache_entries gauge\nbcq_plan_cache_entries {}",
            c.entries
        );
        let w = &self.writes;
        for (name, v) in [
            ("bcq_writes_inserts_total", w.inserts),
            ("bcq_writes_deletes_total", w.deletes),
            ("bcq_writes_bulk_updates_total", w.bulk_updates),
            ("bcq_view_recomputes_total", w.view_recomputes),
            ("bcq_cow_shard_clones_total", w.cow_shard_clones),
            ("bcq_cow_cells_cloned_total", w.cow_cells_cloned),
            ("bcq_write_conflicts_total", w.conflicts),
        ] {
            let _ = writeln!(s, "# TYPE {name} counter\n{name} {v}");
        }
        if w.latency.count() > 0 {
            s.push_str("# TYPE bcq_write_latency_ns summary\n");
            prom_summary(
                &mut s,
                "bcq_write_latency_ns",
                "path",
                "maintained",
                &w.latency,
            );
        }
        if w.lock_wait.count() > 0 {
            s.push_str("# TYPE bcq_writer_lock_wait_ns summary\n");
            prom_summary(
                &mut s,
                "bcq_writer_lock_wait_ns",
                "lock",
                "relation",
                &w.lock_wait,
            );
        }
        if w.commit_hold.count() > 0 {
            s.push_str("# TYPE bcq_commit_hold_ns summary\n");
            prom_summary(
                &mut s,
                "bcq_commit_hold_ns",
                "section",
                "commit",
                &w.commit_hold,
            );
        }
        let ing = self.ingest;
        for (name, v) in [
            ("bcq_ingest_rows_total", ing.rows),
            ("bcq_ingest_chunks_total", ing.chunks),
            ("bcq_ingest_bytes_total", ing.bytes),
            ("bcq_ingest_intern_batch_hits_total", ing.intern_batch_hits),
            ("bcq_ingest_index_build_ns_total", ing.index_build_ns),
        ] {
            let _ = writeln!(s, "# TYPE {name} counter\n{name} {v}");
        }
        let wal = &self.wal;
        for (name, v) in [
            ("bcq_wal_records_total", wal.records),
            ("bcq_wal_bytes_total", wal.bytes),
            ("bcq_wal_fsyncs_total", wal.fsyncs),
            ("bcq_wal_group_batches_total", wal.group_batches),
            ("bcq_wal_group_records_total", wal.group_records),
            ("bcq_wal_replayed_total", wal.replayed),
            ("bcq_wal_checkpoints_total", wal.checkpoints),
        ] {
            let _ = writeln!(s, "# TYPE {name} counter\n{name} {v}");
        }
        if wal.group_batch_sizes.count() > 0 {
            s.push_str("# TYPE bcq_group_commit_batch summary\n");
            prom_summary(
                &mut s,
                "bcq_group_commit_batch",
                "unit",
                "commits",
                &wal.group_batch_sizes,
            );
        }
        for (name, v) in [
            ("bcq_wal_last_seq", wal.last_seq),
            ("bcq_wal_retained_bytes", wal.retained_bytes),
            ("bcq_snapshot_bytes", wal.snapshot_bytes),
        ] {
            let _ = writeln!(s, "# TYPE {name} gauge\n{name} {v}");
        }
        let g = self.gauges;
        for (name, v) in [
            ("bcq_relations", g.relations),
            ("bcq_total_tuples", g.total_tuples),
            ("bcq_interner_symbols", g.interner_symbols),
            ("bcq_index_keys", g.index_keys),
            ("bcq_index_bytes", g.index_bytes),
            ("bcq_table_bytes", g.table_bytes),
            ("bcq_epoch", g.epoch),
        ] {
            let _ = writeln!(s, "# TYPE {name} gauge\n{name} {v}");
        }
        s
    }
}

fn json_hist(h: &HistSnapshot) -> String {
    format!(
        "{{\"p50\": {}, \"p90\": {}, \"p99\": {}, \"p999\": {}, \"max\": {}, \"mean\": {:.1}}}",
        h.quantile(0.50),
        h.quantile(0.90),
        h.quantile(0.99),
        h.quantile(0.999),
        h.max(),
        h.mean(),
    )
}

fn prom_summary(s: &mut String, name: &str, key: &str, label: &str, h: &HistSnapshot) {
    for (q, v) in [
        ("0.5", h.quantile(0.50)),
        ("0.9", h.quantile(0.90)),
        ("0.99", h.quantile(0.99)),
        ("0.999", h.quantile(0.999)),
    ] {
        let _ = writeln!(s, "{name}{{{key}=\"{label}\",quantile=\"{q}\"}} {v}");
    }
    let _ = writeln!(s, "{name}_count{{{key}=\"{label}\"}} {}", h.count());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsSnapshot {
        let r = MetricsRegistry::new();
        r.record_request(LaneKind::Bounded, 800, 3);
        r.record_request(LaneKind::Bounded, 900, 3);
        r.record_request(LaneKind::Budgeted, 50_000, 120);
        r.record_budget_verdict(true);
        r.record_sql(2);
        r.record_sql(1);
        r.record_write(true, 4_000);
        r.index_build_ns.add(7_500);
        r.record_lock_wait(250, true);
        r.record_lock_wait(0, false); // uncontended: not recorded
        r.record_commit_hold(90);
        r.record_group_commit(4);
        let mut snap = r.snapshot();
        snap.cache.hits = 2;
        snap.cache.misses = 1;
        snap.gauges.total_tuples = 11;
        snap.gauges.interner_symbols = 7;
        snap.gauges.index_keys = 3;
        snap.gauges.index_bytes = 420;
        snap.gauges.table_bytes = 96;
        snap.wal.records = 5;
        snap.wal.fsyncs = 2;
        snap.wal.last_seq = 5;
        snap.wal.retained_bytes = 64;
        snap.wal.snapshot_bytes = 4096;
        snap.ingest.rows = 1_000;
        snap.ingest.chunks = 2;
        snap.ingest.bytes = 48_000;
        snap.ingest.intern_batch_hits = 1;
        snap
    }

    #[test]
    fn json_exposition_carries_all_sections() {
        let j = sample().to_json();
        for key in [
            "\"bounded\"",
            "\"budgeted\"",
            "\"p999\"",
            "\"plan_cache\"",
            "\"admission\"",
            "\"sql\": {\"requests\": 2, \"literals_lifted\": 3}",
            "\"writes\"",
            "\"view_recomputes\"",
            "\"gauges\"",
            "\"interner_symbols\": 7",
            "\"index_keys\": 3, \"index_bytes\": 420, \"table_bytes\": 96",
            "\"wal\"",
            "\"fsyncs\": 2",
            "\"retained_bytes\": 64, \"snapshot_bytes\": 4096",
            "\"ingest\"",
            "\"intern_batch_hits\": 1",
            "\"index_build_ns\": 7500",
            "\"lock_conflicts\": 1",
            "\"lock_wait_ns\"",
            "\"commit_hold_ns\"",
            "\"group_batch_size\"",
        ] {
            assert!(j.contains(key), "missing {key} in:\n{j}");
        }
    }

    #[test]
    fn prometheus_exposition_is_line_oriented() {
        let p = sample().to_prometheus();
        assert!(p.contains("bcq_requests_total{lane=\"bounded\"} 2"), "{p}");
        assert!(
            p.contains("bcq_request_latency_ns{lane=\"bounded\",quantile=\"0.5\"}"),
            "{p}"
        );
        assert!(p.contains("bcq_budget_completed_total 1"), "{p}");
        assert!(p.contains("bcq_sql_requests_total 2"), "{p}");
        assert!(p.contains("bcq_sql_literals_lifted_total 3"), "{p}");
        assert!(p.contains("bcq_plan_cache_hits_total 2"), "{p}");
        assert!(p.contains("bcq_writes_inserts_total 1"), "{p}");
        assert!(p.contains("bcq_total_tuples 11"), "{p}");
        assert!(p.contains("bcq_index_keys 3"), "{p}");
        assert!(p.contains("bcq_index_bytes 420"), "{p}");
        assert!(p.contains("bcq_table_bytes 96"), "{p}");
        assert!(p.contains("bcq_wal_records_total 5"), "{p}");
        assert!(p.contains("bcq_wal_last_seq 5"), "{p}");
        assert!(
            p.contains("# TYPE bcq_wal_retained_bytes gauge\nbcq_wal_retained_bytes 64"),
            "{p}"
        );
        assert!(
            p.contains("# TYPE bcq_snapshot_bytes gauge\nbcq_snapshot_bytes 4096"),
            "{p}"
        );
        assert!(p.contains("bcq_ingest_rows_total 1000"), "{p}");
        assert!(p.contains("bcq_ingest_chunks_total 2"), "{p}");
        assert!(p.contains("bcq_ingest_bytes_total 48000"), "{p}");
        assert!(p.contains("bcq_write_conflicts_total 1"), "{p}");
        assert!(
            p.contains("bcq_writer_lock_wait_ns{lock=\"relation\",quantile=\"0.5\"}"),
            "{p}"
        );
        assert!(
            p.contains("bcq_commit_hold_ns{section=\"commit\",quantile=\"0.5\"}"),
            "{p}"
        );
        assert!(
            p.contains("bcq_group_commit_batch_count{unit=\"commits\"} 1"),
            "{p}"
        );
    }

    #[test]
    fn merged_snapshots_sum_counters_and_histograms() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.requests(), 6);
        assert_eq!(a.lane(LaneKind::Bounded).latency.count(), 4);
        assert_eq!(a.lane(LaneKind::Bounded).tuples_fetched, 12);
        assert_eq!(a.admission.budget_completed, 2);
        assert_eq!(a.sql.requests, 4);
        assert_eq!(a.sql.literals_lifted, 6);
        assert_eq!(a.cache.hits, 4);
        assert_eq!(a.writes.inserts, 2);
        assert_eq!(a.ingest.rows, 2_000);
        assert_eq!(a.ingest.chunks, 4);
        assert_eq!(a.ingest.index_build_ns, 15_000);
        assert_eq!(a.writes.conflicts, 2);
        assert_eq!(a.writes.lock_wait.count(), 2);
        assert_eq!(a.writes.commit_hold.count(), 2);
        assert_eq!(a.wal.group_batch_sizes.count(), 2);
        assert_eq!(a.wal.records, 10);
        // Gauges are point-in-time: max, not sum.
        assert_eq!(a.gauges.total_tuples, 11);
        assert_eq!(
            (
                a.gauges.index_keys,
                a.gauges.index_bytes,
                a.gauges.table_bytes
            ),
            (3, 420, 96)
        );
        assert_eq!(a.wal.last_seq, 5);
        assert_eq!((a.wal.retained_bytes, a.wal.snapshot_bytes), (64, 4096));
    }
}
