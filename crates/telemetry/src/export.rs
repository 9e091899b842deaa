//! Snapshot and exposition: a mergeable, owned [`MetricsSnapshot`] with
//! hand-rolled JSON and Prometheus-style text renderings (no serde — the
//! formats are small and fixed, and the crate stays dependency-free).
//!
//! Each section of the snapshot is declared as one table: a row per
//! metric gives its field, its kind, its source, its JSON key and its
//! Prometheus name. The row is the only place a metric is declared.
//! [`MetricsSnapshot::merge`], [`MetricsSnapshot::to_json`] and
//! [`MetricsSnapshot::to_prometheus`] walk those tables, and so does the
//! filling of a snapshot. The kind decides how a row merges and prints: a
//! counter adds on merge, a gauge keeps the larger value, a summary
//! merges its histogram. JSON lists a section's rows in table order;
//! Prometheus lists its counters, then its non-empty summaries, then its
//! gauges.
//!
//! The source says who counts the metric. A row `from registry` is
//! recorded into the [`MetricsRegistry`]: its field names a variant of
//! [`Count`] (a counter) or [`Hist`] (a summary), which indexes the
//! registry's arrays. A row `from cache`, `from wal` or `from db` is
//! sampled when the snapshot is taken: its field names a variant of
//! [`FromCache`], [`FromWal`] or [`FromDb`], and the serving layer fills
//! each source's rows with one [`MetricsSnapshot::sample`] call whose
//! closure matches on those variants.
//!
//! [`MetricsRegistry`]: crate::MetricsRegistry

use crate::hist::HistSnapshot;
use crate::metrics::Lane;
use crate::span::Phase;
use std::fmt::Write as _;

/// How a metric merges and how Prometheus types it. Declared in the order
/// a section lists its rows in Prometheus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    /// A running total: `merge` adds.
    Counter,
    /// A distribution: `merge` merges the histograms.
    Summary,
    /// A point-in-time level: `merge` keeps the larger value.
    Gauge,
}

impl Kind {
    fn prometheus_type(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Summary => "summary",
            Kind::Gauge => "gauge",
        }
    }
}

/// One row of a metric table.
struct Row {
    /// The snapshot field, which is also the name of the row's source
    /// variant.
    #[cfg(test)]
    field: &'static str,
    json: &'static str,
    prometheus: &'static str,
    kind: Kind,
    /// A section summary's Prometheus label pair. Empty in a family table,
    /// where the family's key and the member's label stand in.
    summary_label: (&'static str, &'static str),
}

/// A metric's value, as the expositions read it.
enum Value<'a> {
    Num(u64),
    Hist(&'a HistSnapshot),
}

/// Declares a snapshot struct from its metric table. Each row reads
/// `field: kind => "json_key", "prometheus_name";`, where kind is
/// `counter`, `gauge` or `summary("label_key", "label_value")` (a bare
/// `summary` in a family table). A family member names its label field in
/// parentheses after the struct name. The struct gets its table
/// (`ROWS`), its values in table order (`values`) and its merge
/// (`fold`).
macro_rules! table {
    (
        $(#[$attr:meta])*
        pub struct $name:ident $(($label:ident: $label_ty:ty))? {
            $(
                $(#[$doc:meta])*
                $field:ident: $kind:ident $(($key:literal, $value:literal))? => $json:literal, $prom:literal;
            )*
        }
    ) => {
        $(#[$attr])*
        pub struct $name {
            $(
                /// Which member of the family this is.
                pub $label: $label_ty,
            )?
            $(
                $(#[$doc])*
                pub $field: table!(@type $kind),
            )*
        }

        impl $name {
            const ROWS: &'static [Row] = &[$(Row {
                #[cfg(test)]
                field: stringify!($field),
                json: $json,
                prometheus: $prom,
                kind: table!(@kind $kind),
                summary_label: table!(@label $(($key, $value))?),
            }),*];

            fn values(&self) -> Vec<Value<'_>> {
                vec![$(table!(@value $kind, self.$field)),*]
            }

            fn fold(&mut self, other: &Self) {
                $(table!(@fold $kind, self.$field, other.$field);)*
            }
        }
    };
    (@type summary) => { HistSnapshot };
    (@type $num:ident) => { u64 };
    (@kind counter) => { Kind::Counter };
    (@kind gauge) => { Kind::Gauge };
    (@kind summary) => { Kind::Summary };
    (@label) => { ("", "") };
    (@label ($key:literal, $value:literal)) => { ($key, $value) };
    (@value summary, $v:expr) => { Value::Hist(&$v) };
    (@value $num:ident, $v:expr) => { Value::Num($v) };
    (@fold counter, $a:expr, $b:expr) => { $a += $b };
    (@fold gauge, $a:expr, $b:expr) => { $a = $a.max($b) };
    (@fold summary, $a:expr, $b:expr) => { $a.merge(&$b) };
}

/// Declares every section of [`MetricsSnapshot`] and the snapshot itself.
/// A section reads `pub struct Name in field as "json_key" { rows }`; a
/// row is a [`table!`] row with its source after the kind: `from
/// registry`, `from cache`, `from wal` or `from db`. Each section becomes
/// a [`table!`] struct and a field of the snapshot, and [`sources!`] sorts
/// the rows by source into the source enums.
macro_rules! sections {
    ($(
        $(#[$attr:meta])*
        pub struct $name:ident in $sec:ident as $key:literal {
            $(
                $(#[$doc:meta])*
                $field:ident: $kind:ident $(($lk:literal, $lv:literal))? from $src:ident
                    => $json:literal, $prom:literal;
            )*
        }
    )*) => {
        $(table! {
            $(#[$attr])*
            pub struct $name {
                $(
                    $(#[$doc])*
                    $field: $kind $(($lk, $lv))? => $json, $prom;
                )*
            }
        })*

        /// A complete, owned, mergeable metrics snapshot.
        #[derive(Debug, Clone)]
        pub struct MetricsSnapshot {
            /// Per-lane request series, in [`Lane::ALL`] order.
            pub lanes: Vec<LaneSnapshot>,
            /// Traced phase timings, in [`Phase::ALL`] order.
            pub phases: Vec<PhaseSnapshot>,
            $(
                #[doc = concat!("The `", $key, "` section (see [`", stringify!($name), "`]).")]
                pub $sec: $name,
            )*
        }

        impl MetricsSnapshot {
            /// The snapshot of these families with every section zeroed.
            pub(crate) fn new(lanes: Vec<LaneSnapshot>, phases: Vec<PhaseSnapshot>) -> Self {
                MetricsSnapshot { lanes, phases, $($sec: $name::default()),* }
            }

            /// The sections in exposition order: their JSON keys, tables
            /// and values.
            fn sections(&self) -> Vec<Section<'_>> {
                vec![$(($key, $name::ROWS, self.$sec.values())),*]
            }

            fn fold_sections(&mut self, other: &Self) {
                $(self.$sec.fold(&other.$sec);)*
            }
        }

        sources!([] [] [] [] []; $($(($sec $field $kind $src [$(#[$doc])*]))*)*);
    };
}

/// Sorts the rows `(section field kind source [docs])` into five buckets —
/// registry counters, registry summaries, and the rows from the cache,
/// the WAL and the database — and declares one [`source!`] enum per
/// bucket. A registry gauge or a sampled summary matches no arm.
macro_rules! sources {
    ([$($count:tt)*] [$($hist:tt)*] [$($cache:tt)*] [$($wal:tt)*] [$($db:tt)*];) => {
        source! {
            /// A counter row `from registry`: its slot in
            /// [`MetricsRegistry::add`](crate::MetricsRegistry::add).
            Count: u64 [$($count)*]
        }
        source! {
            /// A summary row `from registry`: its slot in
            /// [`MetricsRegistry::record`](crate::MetricsRegistry::record).
            Hist: HistSnapshot [$($hist)*]
        }
        source! {
            /// A row `from cache`, sampled from the plan cache.
            FromCache: u64 [$($cache)*]
        }
        source! {
            /// A row `from wal`, sampled from the WAL writer.
            FromWal: u64 [$($wal)*]
        }
        source! {
            /// A row `from db`, sampled from the database.
            FromDb: u64 [$($db)*]
        }
    };
    ([$($c:tt)*] $h:tt $ca:tt $w:tt $d:tt; ($s:ident $f:ident counter registry $doc:tt) $($rest:tt)*) => {
        sources!([$($c)* ($s $f $doc)] $h $ca $w $d; $($rest)*);
    };
    ($c:tt [$($h:tt)*] $ca:tt $w:tt $d:tt; ($s:ident $f:ident summary registry $doc:tt) $($rest:tt)*) => {
        sources!($c [$($h)* ($s $f $doc)] $ca $w $d; $($rest)*);
    };
    ($c:tt $h:tt [$($ca:tt)*] $w:tt $d:tt; ($s:ident $f:ident $k:ident cache $doc:tt) $($rest:tt)*) => {
        sources!($c $h [$($ca)* ($s $f $doc)] $w $d; $($rest)*);
    };
    ($c:tt $h:tt $ca:tt [$($w:tt)*] $d:tt; ($s:ident $f:ident $k:ident wal $doc:tt) $($rest:tt)*) => {
        sources!($c $h $ca [$($w)* ($s $f $doc)] $d; $($rest)*);
    };
    ($c:tt $h:tt $ca:tt $w:tt [$($d:tt)*]; ($s:ident $f:ident $k:ident db $doc:tt) $($rest:tt)*) => {
        sources!($c $h $ca $w [$($d)* ($s $f $doc)]; $($rest)*);
    };
}

/// Declares one source enum — a variant per row, named after the row's
/// field and documented by it — and its [`Source`] impl, which fills
/// exactly those rows.
macro_rules! source {
    (
        $(#[$attr:meta])*
        $name:ident: $value:ty [$(($sec:ident $field:ident [$(#[$doc:meta])*]))*]
    ) => {
        $(#[$attr])*
        #[allow(non_camel_case_types)]
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $name {
            $($(#[$doc])* $field,)*
        }

        // Only the tests read the sampled sources' lists.
        #[cfg_attr(not(test), allow(dead_code))]
        impl $name {
            /// Every variant, in table order; a variant's position is its
            /// slot.
            pub(crate) const ALL: &'static [$name] = &[$($name::$field),*];
        }

        impl Source for $name {
            type Value = $value;

            fn fill(snap: &mut MetricsSnapshot, mut value: impl FnMut(Self) -> $value) {
                $(snap.$sec.$field = value($name::$field);)*
            }
        }
    };
}

/// Who counts a group of metrics: one of the enums the section tables
/// declare ([`Count`], [`Hist`], [`FromCache`], [`FromWal`], [`FromDb`]),
/// whose variants are the rows it fills.
pub trait Source: Copy {
    /// The value a row of this source holds.
    type Value;

    /// Sets each of this source's rows in `snap` to `value` of its
    /// variant.
    fn fill(snap: &mut MetricsSnapshot, value: impl FnMut(Self) -> Self::Value);
}

table! {
    /// One lane's request series.
    #[derive(Debug, Clone)]
    pub struct LaneSnapshot(lane: Lane) {
        /// Total tuples fetched on the lane (aggregate `|D_Q|`).
        tuples_fetched: counter => "tuples_fetched", "bcq_tuples_fetched_total";
        /// End-to-end request latency distribution (count = requests served).
        latency: summary => "latency_ns", "bcq_request_latency_ns";
    }
}

table! {
    /// One traced phase's timing distribution.
    #[derive(Debug, Clone)]
    pub struct PhaseSnapshot(phase: Phase) {
        /// Phase wall-clock distribution (empty unless tracing ran).
        timings: summary => "latency_ns", "bcq_phase_latency_ns";
    }
}

sections! {
    /// The SQL text path: requests received and literals lifted into slots.
    /// How many of those requests compiled is the plan cache's `misses`.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct SqlSnapshot in sql as "sql" {
        /// Query texts received that lexed.
        requests: counter from registry => "requests", "bcq_sql_requests_total";
        /// Literals lifted out of those texts into parameter slots.
        literals_lifted: counter from registry => "literals_lifted", "bcq_sql_literals_lifted_total";
    }

    /// Admission-control verdict counts.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct AdmissionSnapshot in admission as "admission" {
        /// Requests refused outright (strict policy).
        rejected: counter from registry => "rejected", "bcq_admission_rejected_total";
        /// Budgeted requests that finished within the cap.
        budget_completed: counter from registry => "budget_completed", "bcq_budget_completed_total";
        /// Budgeted requests that exhausted the cap.
        budget_exhausted: counter from registry => "budget_exhausted", "bcq_budget_exhausted_total";
    }

    /// Plan-cache movement counters plus current occupancy.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct PlanCacheSnapshot in cache as "plan_cache" {
        /// Lookups that found a live entry.
        hits: counter from cache => "hits", "bcq_plan_cache_hits_total";
        /// Lookups that found nothing.
        misses: counter from cache => "misses", "bcq_plan_cache_misses_total";
        /// Capacity evictions.
        evictions: counter from cache => "evictions", "bcq_plan_cache_evictions_total";
        /// Live entries right now.
        entries: gauge from cache => "entries", "bcq_plan_cache_entries";
    }

    /// Write-path counters and latency.
    #[derive(Debug, Clone, Default)]
    pub struct WriteSnapshot in writes as "writes" {
        /// Maintained single-row inserts.
        inserts: counter from registry => "inserts", "bcq_writes_inserts_total";
        /// Maintained single-row deletes that found a row.
        deletes: counter from registry => "deletes", "bcq_writes_deletes_total";
        /// Out-of-band bulk updates.
        bulk_updates: counter from registry => "bulk_updates", "bcq_writes_bulk_updates_total";
        /// View re-evaluations forced by a stale cached answer.
        view_recomputes: counter from registry => "view_recomputes", "bcq_view_recomputes_total";
        /// Relation shards cloned by copy-on-write since startup.
        cow_shard_clones: counter from db => "cow_shard_clones", "bcq_cow_shard_clones_total";
        /// Cells (row slots) copied by those clones — with `inserts` +
        /// `deletes`, the write-amplification numerator.
        cow_cells_cloned: counter from db => "cow_cells_cloned", "bcq_cow_cells_cloned_total";
        /// Latch acquisitions that conflicted with a same-relation writer.
        conflicts: counter from registry => "lock_conflicts", "bcq_write_conflicts_total";
        /// End-to-end write latency (inserts + deletes).
        latency: summary("path", "maintained") from registry => "latency_ns", "bcq_write_latency_ns";
        /// Nanoseconds writers waited for per-relation write latches
        /// (contended acquisitions only).
        lock_wait: summary("lock", "relation") from registry => "lock_wait_ns", "bcq_writer_lock_wait_ns";
        /// Time spent inside the exclusive commit section (shard swap + epoch
        /// publication; excludes encoding, index maintenance, fsyncs).
        commit_hold: summary("section", "commit") from registry => "commit_hold_ns", "bcq_commit_hold_ns";
    }

    /// Bulk-ingest fast-path counters: chunked column appends through the
    /// storage layer's bulk loader, counted where the rows land, and the
    /// deferred index rebuilds that follow them.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct IngestSnapshot in ingest as "ingest" {
        /// Rows appended through the bulk-ingest fast path.
        rows: counter from db => "rows", "bcq_ingest_rows_total";
        /// Chunks appended (one WAL record each).
        chunks: counter from db => "chunks", "bcq_ingest_chunks_total";
        /// Cell bytes appended.
        bytes: counter from db => "bytes", "bcq_ingest_bytes_total";
        /// Chunks whose every value was already interned (no symbol-table
        /// copy-on-write, no intern WAL records).
        intern_batch_hits: counter from db => "intern_batch_hits", "bcq_ingest_intern_batch_hits_total";
        /// Nanoseconds spent rebuilding indexes after bulk loads.
        index_build_ns: counter from registry => "index_build_ns", "bcq_ingest_index_build_ns_total";
    }

    /// Durability-layer counters. All-zero when the server runs without
    /// durability.
    #[derive(Debug, Clone, Default)]
    pub struct WalSnapshot in wal as "wal" {
        /// WAL records appended.
        records: counter from wal => "records", "bcq_wal_records_total";
        /// WAL bytes appended (framing included).
        bytes: counter from wal => "bytes", "bcq_wal_bytes_total";
        /// fsync batches issued (group commit collapses many records into one).
        fsyncs: counter from wal => "fsyncs", "bcq_wal_fsyncs_total";
        /// Group flushes led by an ack that covered ≥ 1 new commit.
        group_batches: counter from wal => "group_batches", "bcq_wal_group_batches_total";
        /// Commits covered by those group flushes.
        group_records: counter from wal => "group_records", "bcq_wal_group_records_total";
        /// Records replayed by the most recent recovery.
        replayed: counter from wal => "replayed", "bcq_wal_replayed_total";
        /// Checkpoints (log compactions) taken since startup.
        checkpoints: counter from wal => "checkpoints", "bcq_wal_checkpoints_total";
        /// Highest durable sequence number.
        last_seq: gauge from wal => "last_seq", "bcq_wal_last_seq";
        /// Log bytes on storage past the last checkpoint's base.
        retained_bytes: gauge from wal => "retained_bytes", "bcq_wal_retained_bytes";
        /// Bytes of the checkpoint base the log begins with: the last one
        /// written, or the one recovery replayed.
        snapshot_bytes: gauge from wal => "snapshot_bytes", "bcq_snapshot_bytes";
        /// Group-commit batch-size distribution (commits per flush), as
        /// flush leaders report their batches.
        group_batch_sizes: summary("unit", "commits") from registry => "group_batch_size", "bcq_group_commit_batch";
    }

    /// Point-in-time storage gauges.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct GaugeSnapshot in gauges as "gauges" {
        /// Relations in the catalog.
        relations: gauge from db => "relations", "bcq_relations";
        /// Tuples stored across all relations.
        total_tuples: gauge from db => "total_tuples", "bcq_total_tuples";
        /// Interned symbols in the shared symbol table.
        interner_symbols: gauge from db => "interner_symbols", "bcq_interner_symbols";
        /// Distinct keys across all hash indices.
        index_keys: gauge from db => "index_keys", "bcq_index_keys";
        /// Resident bytes of all hash indices (`HashIndex::approx_bytes`).
        index_bytes: gauge from db => "index_bytes", "bcq_index_bytes";
        /// Resident bytes of all tables' cell storage.
        table_bytes: gauge from db => "table_bytes", "bcq_table_bytes";
        /// Global database epoch.
        epoch: gauge from db => "epoch", "bcq_epoch";
    }
}

/// A labelled family of series: one JSON object per member, and under
/// each Prometheus `# TYPE` one sample per member.
struct Family<'a> {
    json: &'static str,
    /// The Prometheus label key the members' labels go under.
    key: &'static str,
    /// The Prometheus counter of each member's request count, if exported.
    requests: Option<&'static str>,
    rows: &'static [Row],
    /// Each member's label, request count and values.
    members: Vec<(&'static str, u64, Vec<Value<'a>>)>,
}

/// A section: its JSON key, its table and its values.
type Section<'a> = (&'static str, &'static [Row], Vec<Value<'a>>);

impl MetricsSnapshot {
    /// Total requests served across all lanes.
    pub fn requests(&self) -> u64 {
        self.lanes.iter().map(|l| l.latency.count()).sum()
    }

    /// The snapshot of one lane.
    pub fn lane(&self, lane: Lane) -> &LaneSnapshot {
        &self.lanes[lane.index()]
    }

    /// Fills every row of one source with `value` of its variant, e.g.
    /// `snap.sample(|m| match m { FromCache::hits => …, … })`.
    pub fn sample<S: Source>(&mut self, value: impl FnMut(S) -> S::Value) {
        S::fill(self, value);
    }

    /// The families in exposition order: every lane, then the phases
    /// tracing timed.
    fn families(&self) -> [Family<'_>; 2] {
        [
            Family {
                json: "lanes",
                key: "lane",
                requests: Some("bcq_requests_total"),
                rows: LaneSnapshot::ROWS,
                members: self
                    .lanes
                    .iter()
                    .map(|l| (l.lane.label(), l.latency.count(), l.values()))
                    .collect(),
            },
            Family {
                json: "phases",
                key: "phase",
                requests: None,
                rows: PhaseSnapshot::ROWS,
                members: self
                    .phases
                    .iter()
                    .filter(|p| p.timings.count() > 0)
                    .map(|p| (p.phase.label(), p.timings.count(), p.values()))
                    .collect(),
            },
        ]
    }

    /// Folds `other` into `self`: histograms and counters add (exact —
    /// the bucket layout is shared), gauges take the componentwise max.
    /// Merging snapshots from different servers yields the fleet view.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (a, b) in self.lanes.iter_mut().zip(&other.lanes) {
            a.fold(b);
        }
        for (a, b) in self.phases.iter_mut().zip(&other.phases) {
            a.fold(b);
        }
        self.fold_sections(other);
    }

    /// Hand-rolled JSON rendering (stable key order, no dependencies).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push('{');
        for f in self.families() {
            let _ = write!(s, "\n  \"{}\": {{", f.json);
            for (i, (label, count, values)) in f.members.iter().enumerate() {
                let sep = if i == 0 { "" } else { "," };
                let _ = write!(s, "{sep}\n    \"{label}\": {{\"count\": {count}");
                for (row, v) in f.rows.iter().zip(values) {
                    let _ = write!(s, ", \"{}\": ", row.json);
                    json_value(&mut s, v);
                }
                s.push('}');
            }
            s.push_str("\n  },");
        }
        for (i, (key, rows, values)) in self.sections().iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(s, "{sep}\n  \"{key}\": {{");
            for (j, (row, v)) in rows.iter().zip(values).enumerate() {
                let sep = if j == 0 { "" } else { ", " };
                let _ = write!(s, "{sep}\"{}\": ", row.json);
                json_value(&mut s, v);
            }
            s.push('}');
        }
        s.push_str("\n}");
        s
    }

    /// Prometheus-style text exposition: counters as `*_total`, latency
    /// distributions as summaries with p50/p90/p99/p999 quantiles.
    pub fn to_prometheus(&self) -> String {
        let mut s = String::with_capacity(8192);
        for f in self.families() {
            if let Some(name) = f.requests {
                let _ = writeln!(s, "# TYPE {name} counter");
                for (label, count, _) in &f.members {
                    let _ = writeln!(s, "{name}{{{}=\"{label}\"}} {count}", f.key);
                }
            }
            for (i, row) in f.rows.iter().enumerate() {
                let name = row.prometheus;
                let _ = writeln!(s, "# TYPE {name} {}", row.kind.prometheus_type());
                for (label, _, values) in &f.members {
                    match values[i] {
                        Value::Num(n) => {
                            let _ = writeln!(s, "{name}{{{}=\"{label}\"}} {n}", f.key);
                        }
                        Value::Hist(h) => prom_summary(&mut s, name, f.key, label, h),
                    }
                }
            }
        }
        for (_, rows, values) in self.sections() {
            let mut cells: Vec<_> = rows.iter().zip(values).collect();
            cells.sort_by_key(|(row, _)| row.kind);
            for (row, v) in cells {
                let (name, ty) = (row.prometheus, row.kind.prometheus_type());
                match v {
                    Value::Num(n) => {
                        let _ = writeln!(s, "# TYPE {name} {ty}\n{name} {n}");
                    }
                    Value::Hist(h) if h.count() > 0 => {
                        let _ = writeln!(s, "# TYPE {name} {ty}");
                        let (key, label) = row.summary_label;
                        prom_summary(&mut s, name, key, label, h);
                    }
                    Value::Hist(_) => {}
                }
            }
        }
        s
    }
}

fn json_value(s: &mut String, v: &Value<'_>) {
    let _ = match v {
        Value::Num(n) => write!(s, "{n}"),
        Value::Hist(h) => write!(
            s,
            "{{\"p50\": {}, \"p90\": {}, \"p99\": {}, \"p999\": {}, \"max\": {}, \"mean\": {:.1}}}",
            h.quantile(0.50),
            h.quantile(0.90),
            h.quantile(0.99),
            h.quantile(0.999),
            h.max(),
            h.mean(),
        ),
    };
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
    use crate::MetricsRegistry;

    fn sample() -> MetricsSnapshot {
        let r = MetricsRegistry::new();
        r.record_request(Lane::Bounded, 800, 3);
        r.record_request(Lane::Bounded, 900, 3);
        r.record_request(Lane::Unbounded, 50_000, 120);
        r.add(Count::budget_completed, 1);
        r.add(Count::requests, 2);
        r.add(Count::literals_lifted, 3);
        r.add(Count::inserts, 1);
        r.record(Hist::latency, 4_000);
        r.add(Count::index_build_ns, 7_500);
        r.add(Count::conflicts, 1);
        r.record(Hist::lock_wait, 250);
        r.record(Hist::commit_hold, 90);
        r.record(Hist::group_batch_sizes, 4);
        r.phase_hist(Phase::CacheLookup).record(40);
        r.phase_hist(Phase::Execute).record(300);
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

    /// Every metric of `snap` with its table row: the sections', then each
    /// family member's.
    fn cells(snap: &MetricsSnapshot) -> Vec<(&'static Row, Value<'_>)> {
        let mut out = Vec::new();
        for (_, rows, values) in snap.sections() {
            out.extend(rows.iter().zip(values));
        }
        for family in snap.families() {
            for (_, _, values) in family.members {
                out.extend(family.rows.iter().zip(values));
            }
        }
        out
    }

    #[test]
    fn merged_snapshots_sum_counters_and_histograms() {
        let before = sample();
        let mut after = before.clone();
        after.merge(&before);
        assert_eq!(after.requests(), 2 * before.requests());
        let (old, new) = (cells(&before), cells(&after));
        assert_eq!(old.len(), new.len());
        for ((row, a), (_, b)) in old.iter().zip(&new) {
            let name = row.prometheus;
            match (row.kind, a, b) {
                (Kind::Counter, Value::Num(a), Value::Num(b)) => assert_eq!(*b, 2 * a, "{name}"),
                (Kind::Gauge, Value::Num(a), Value::Num(b)) => assert_eq!(b, a, "{name}"),
                (Kind::Summary, Value::Hist(a), Value::Hist(b)) => {
                    assert_eq!(b.count(), 2 * a.count(), "{name}")
                }
                _ => panic!("{name}: the row's kind does not match its value"),
            }
        }
    }

    /// The one row whose value differs between `a` and `b`; panics unless
    /// exactly one does.
    fn moved_row(a: &MetricsSnapshot, b: &MetricsSnapshot) -> &'static Row {
        let moved: Vec<&'static Row> = cells(a)
            .into_iter()
            .zip(cells(b))
            .filter(|((_, x), (_, y))| match (x, y) {
                (Value::Num(x), Value::Num(y)) => x != y,
                (Value::Hist(x), Value::Hist(y)) => x.count() != y.count(),
                _ => true,
            })
            .map(|((row, _), _)| row)
            .collect();
        let names: Vec<_> = moved.iter().map(|r| r.prometheus).collect();
        assert_eq!(moved.len(), 1, "rows moved: {names:?}");
        moved[0]
    }

    #[test]
    fn every_row_reads_its_own_slot() {
        let fresh = MetricsRegistry::new().snapshot();
        let mut moved = Vec::new();
        let mut check = |slot: String, snap: MetricsSnapshot| {
            let row = moved_row(&fresh, &snap);
            assert_eq!(row.field, slot, "slot {slot} moved {}", row.prometheus);
            moved.push(row.prometheus);
        };
        for &m in Count::ALL {
            let r = MetricsRegistry::new();
            r.add(m, 1);
            check(format!("{m:?}"), r.snapshot());
        }
        for &m in Hist::ALL {
            let r = MetricsRegistry::new();
            r.record(m, 1);
            check(format!("{m:?}"), r.snapshot());
        }
        fn sampled<S: Source<Value = u64> + PartialEq + std::fmt::Debug>(
            fresh: &MetricsSnapshot,
            all: &[S],
            check: &mut impl FnMut(String, MetricsSnapshot),
        ) {
            for &m in all {
                let mut snap = fresh.clone();
                snap.sample(|v: S| u64::from(v == m));
                check(format!("{m:?}"), snap);
            }
        }
        sampled(&fresh, FromCache::ALL, &mut check);
        sampled(&fresh, FromWal::ALL, &mut check);
        sampled(&fresh, FromDb::ALL, &mut check);
        // Every section row is some slot's.
        let mut rows: Vec<_> = fresh
            .sections()
            .iter()
            .flat_map(|(_, rows, _)| rows.iter().map(|r| r.prometheus))
            .collect();
        rows.sort_unstable();
        moved.sort_unstable();
        assert_eq!(moved, rows);
    }

    #[test]
    fn exposition_names_are_unique() {
        let snap = sample();
        let mut prometheus = Vec::new();
        for family in snap.families() {
            prometheus.extend(family.requests);
            prometheus.extend(family.rows.iter().map(|r| r.prometheus));
            let mut json: Vec<_> = family.rows.iter().map(|r| r.json).collect();
            json.push("count");
            let n = json.len();
            json.sort_unstable();
            json.dedup();
            assert_eq!(json.len(), n, "a JSON key twice in {}", family.json);
        }
        for (key, rows, _) in snap.sections() {
            prometheus.extend(rows.iter().map(|r| r.prometheus));
            let mut json: Vec<_> = rows.iter().map(|r| r.json).collect();
            let n = json.len();
            json.sort_unstable();
            json.dedup();
            assert_eq!(json.len(), n, "a JSON key twice in {key}");
        }
        let n = prometheus.len();
        prometheus.sort_unstable();
        prometheus.dedup();
        assert_eq!(prometheus.len(), n, "a Prometheus name twice");
    }

    /// `sample().to_json()`, pinned byte for byte.
    const SAMPLE_JSON: &str = r#"{
  "lanes": {
    "bounded": {"count": 2, "tuples_fetched": 6, "latency_ns": {"p50": 808, "p90": 904, "p99": 904, "p999": 904, "max": 911, "mean": 856.0}},
    "bounded_ra": {"count": 0, "tuples_fetched": 0, "latency_ns": {"p50": 0, "p90": 0, "p99": 0, "p999": 0, "max": 0, "mean": 0.0}},
    "budgeted": {"count": 1, "tuples_fetched": 120, "latency_ns": {"p50": 49664, "p90": 49664, "p99": 49664, "p999": 49664, "max": 50175, "mean": 49664.0}}
  },
  "phases": {
    "cache_lookup": {"count": 1, "latency_ns": {"p50": 40, "p90": 40, "p99": 40, "p999": 40, "max": 40, "mean": 40.0}},
    "execute": {"count": 1, "latency_ns": {"p50": 300, "p90": 300, "p99": 300, "p999": 300, "max": 303, "mean": 300.0}}
  },
  "sql": {"requests": 2, "literals_lifted": 3},
  "admission": {"rejected": 0, "budget_completed": 1, "budget_exhausted": 0},
  "plan_cache": {"hits": 2, "misses": 1, "evictions": 0, "entries": 0},
  "writes": {"inserts": 1, "deletes": 0, "bulk_updates": 0, "view_recomputes": 0, "cow_shard_clones": 0, "cow_cells_cloned": 0, "lock_conflicts": 1, "latency_ns": {"p50": 4000, "p90": 4000, "p99": 4000, "p999": 4000, "max": 4031, "mean": 4000.0}, "lock_wait_ns": {"p50": 250, "p90": 250, "p99": 250, "p999": 250, "max": 251, "mean": 250.0}, "commit_hold_ns": {"p50": 91, "p90": 91, "p99": 91, "p999": 91, "max": 91, "mean": 91.0}},
  "ingest": {"rows": 1000, "chunks": 2, "bytes": 48000, "intern_batch_hits": 1, "index_build_ns": 7500},
  "wal": {"records": 5, "bytes": 0, "fsyncs": 2, "group_batches": 0, "group_records": 0, "replayed": 0, "checkpoints": 0, "last_seq": 5, "retained_bytes": 64, "snapshot_bytes": 4096, "group_batch_size": {"p50": 4, "p90": 4, "p99": 4, "p999": 4, "max": 4, "mean": 4.0}},
  "gauges": {"relations": 0, "total_tuples": 11, "interner_symbols": 7, "index_keys": 3, "index_bytes": 420, "table_bytes": 96, "epoch": 0}
}"#;

    /// `sample().to_prometheus()`, pinned byte for byte.
    const SAMPLE_PROMETHEUS: &str = r#"# TYPE bcq_requests_total counter
bcq_requests_total{lane="bounded"} 2
bcq_requests_total{lane="bounded_ra"} 0
bcq_requests_total{lane="budgeted"} 1
# TYPE bcq_tuples_fetched_total counter
bcq_tuples_fetched_total{lane="bounded"} 6
bcq_tuples_fetched_total{lane="bounded_ra"} 0
bcq_tuples_fetched_total{lane="budgeted"} 120
# TYPE bcq_request_latency_ns summary
bcq_request_latency_ns{lane="bounded",quantile="0.5"} 808
bcq_request_latency_ns{lane="bounded",quantile="0.9"} 904
bcq_request_latency_ns{lane="bounded",quantile="0.99"} 904
bcq_request_latency_ns{lane="bounded",quantile="0.999"} 904
bcq_request_latency_ns_count{lane="bounded"} 2
bcq_request_latency_ns{lane="bounded_ra",quantile="0.5"} 0
bcq_request_latency_ns{lane="bounded_ra",quantile="0.9"} 0
bcq_request_latency_ns{lane="bounded_ra",quantile="0.99"} 0
bcq_request_latency_ns{lane="bounded_ra",quantile="0.999"} 0
bcq_request_latency_ns_count{lane="bounded_ra"} 0
bcq_request_latency_ns{lane="budgeted",quantile="0.5"} 49664
bcq_request_latency_ns{lane="budgeted",quantile="0.9"} 49664
bcq_request_latency_ns{lane="budgeted",quantile="0.99"} 49664
bcq_request_latency_ns{lane="budgeted",quantile="0.999"} 49664
bcq_request_latency_ns_count{lane="budgeted"} 1
# TYPE bcq_phase_latency_ns summary
bcq_phase_latency_ns{phase="cache_lookup",quantile="0.5"} 40
bcq_phase_latency_ns{phase="cache_lookup",quantile="0.9"} 40
bcq_phase_latency_ns{phase="cache_lookup",quantile="0.99"} 40
bcq_phase_latency_ns{phase="cache_lookup",quantile="0.999"} 40
bcq_phase_latency_ns_count{phase="cache_lookup"} 1
bcq_phase_latency_ns{phase="execute",quantile="0.5"} 300
bcq_phase_latency_ns{phase="execute",quantile="0.9"} 300
bcq_phase_latency_ns{phase="execute",quantile="0.99"} 300
bcq_phase_latency_ns{phase="execute",quantile="0.999"} 300
bcq_phase_latency_ns_count{phase="execute"} 1
# TYPE bcq_sql_requests_total counter
bcq_sql_requests_total 2
# TYPE bcq_sql_literals_lifted_total counter
bcq_sql_literals_lifted_total 3
# TYPE bcq_admission_rejected_total counter
bcq_admission_rejected_total 0
# TYPE bcq_budget_completed_total counter
bcq_budget_completed_total 1
# TYPE bcq_budget_exhausted_total counter
bcq_budget_exhausted_total 0
# TYPE bcq_plan_cache_hits_total counter
bcq_plan_cache_hits_total 2
# TYPE bcq_plan_cache_misses_total counter
bcq_plan_cache_misses_total 1
# TYPE bcq_plan_cache_evictions_total counter
bcq_plan_cache_evictions_total 0
# TYPE bcq_plan_cache_entries gauge
bcq_plan_cache_entries 0
# TYPE bcq_writes_inserts_total counter
bcq_writes_inserts_total 1
# TYPE bcq_writes_deletes_total counter
bcq_writes_deletes_total 0
# TYPE bcq_writes_bulk_updates_total counter
bcq_writes_bulk_updates_total 0
# TYPE bcq_view_recomputes_total counter
bcq_view_recomputes_total 0
# TYPE bcq_cow_shard_clones_total counter
bcq_cow_shard_clones_total 0
# TYPE bcq_cow_cells_cloned_total counter
bcq_cow_cells_cloned_total 0
# TYPE bcq_write_conflicts_total counter
bcq_write_conflicts_total 1
# TYPE bcq_write_latency_ns summary
bcq_write_latency_ns{path="maintained",quantile="0.5"} 4000
bcq_write_latency_ns{path="maintained",quantile="0.9"} 4000
bcq_write_latency_ns{path="maintained",quantile="0.99"} 4000
bcq_write_latency_ns{path="maintained",quantile="0.999"} 4000
bcq_write_latency_ns_count{path="maintained"} 1
# TYPE bcq_writer_lock_wait_ns summary
bcq_writer_lock_wait_ns{lock="relation",quantile="0.5"} 250
bcq_writer_lock_wait_ns{lock="relation",quantile="0.9"} 250
bcq_writer_lock_wait_ns{lock="relation",quantile="0.99"} 250
bcq_writer_lock_wait_ns{lock="relation",quantile="0.999"} 250
bcq_writer_lock_wait_ns_count{lock="relation"} 1
# TYPE bcq_commit_hold_ns summary
bcq_commit_hold_ns{section="commit",quantile="0.5"} 91
bcq_commit_hold_ns{section="commit",quantile="0.9"} 91
bcq_commit_hold_ns{section="commit",quantile="0.99"} 91
bcq_commit_hold_ns{section="commit",quantile="0.999"} 91
bcq_commit_hold_ns_count{section="commit"} 1
# TYPE bcq_ingest_rows_total counter
bcq_ingest_rows_total 1000
# TYPE bcq_ingest_chunks_total counter
bcq_ingest_chunks_total 2
# TYPE bcq_ingest_bytes_total counter
bcq_ingest_bytes_total 48000
# TYPE bcq_ingest_intern_batch_hits_total counter
bcq_ingest_intern_batch_hits_total 1
# TYPE bcq_ingest_index_build_ns_total counter
bcq_ingest_index_build_ns_total 7500
# TYPE bcq_wal_records_total counter
bcq_wal_records_total 5
# TYPE bcq_wal_bytes_total counter
bcq_wal_bytes_total 0
# TYPE bcq_wal_fsyncs_total counter
bcq_wal_fsyncs_total 2
# TYPE bcq_wal_group_batches_total counter
bcq_wal_group_batches_total 0
# TYPE bcq_wal_group_records_total counter
bcq_wal_group_records_total 0
# TYPE bcq_wal_replayed_total counter
bcq_wal_replayed_total 0
# TYPE bcq_wal_checkpoints_total counter
bcq_wal_checkpoints_total 0
# TYPE bcq_group_commit_batch summary
bcq_group_commit_batch{unit="commits",quantile="0.5"} 4
bcq_group_commit_batch{unit="commits",quantile="0.9"} 4
bcq_group_commit_batch{unit="commits",quantile="0.99"} 4
bcq_group_commit_batch{unit="commits",quantile="0.999"} 4
bcq_group_commit_batch_count{unit="commits"} 1
# TYPE bcq_wal_last_seq gauge
bcq_wal_last_seq 5
# TYPE bcq_wal_retained_bytes gauge
bcq_wal_retained_bytes 64
# TYPE bcq_snapshot_bytes gauge
bcq_snapshot_bytes 4096
# TYPE bcq_relations gauge
bcq_relations 0
# TYPE bcq_total_tuples gauge
bcq_total_tuples 11
# TYPE bcq_interner_symbols gauge
bcq_interner_symbols 7
# TYPE bcq_index_keys gauge
bcq_index_keys 3
# TYPE bcq_index_bytes gauge
bcq_index_bytes 420
# TYPE bcq_table_bytes gauge
bcq_table_bytes 96
# TYPE bcq_epoch gauge
bcq_epoch 0
"#;

    /// A fresh registry's `to_json()`, pinned byte for byte.
    const FRESH_JSON: &str = r#"{
  "lanes": {
    "bounded": {"count": 0, "tuples_fetched": 0, "latency_ns": {"p50": 0, "p90": 0, "p99": 0, "p999": 0, "max": 0, "mean": 0.0}},
    "bounded_ra": {"count": 0, "tuples_fetched": 0, "latency_ns": {"p50": 0, "p90": 0, "p99": 0, "p999": 0, "max": 0, "mean": 0.0}},
    "budgeted": {"count": 0, "tuples_fetched": 0, "latency_ns": {"p50": 0, "p90": 0, "p99": 0, "p999": 0, "max": 0, "mean": 0.0}}
  },
  "phases": {
  },
  "sql": {"requests": 0, "literals_lifted": 0},
  "admission": {"rejected": 0, "budget_completed": 0, "budget_exhausted": 0},
  "plan_cache": {"hits": 0, "misses": 0, "evictions": 0, "entries": 0},
  "writes": {"inserts": 0, "deletes": 0, "bulk_updates": 0, "view_recomputes": 0, "cow_shard_clones": 0, "cow_cells_cloned": 0, "lock_conflicts": 0, "latency_ns": {"p50": 0, "p90": 0, "p99": 0, "p999": 0, "max": 0, "mean": 0.0}, "lock_wait_ns": {"p50": 0, "p90": 0, "p99": 0, "p999": 0, "max": 0, "mean": 0.0}, "commit_hold_ns": {"p50": 0, "p90": 0, "p99": 0, "p999": 0, "max": 0, "mean": 0.0}},
  "ingest": {"rows": 0, "chunks": 0, "bytes": 0, "intern_batch_hits": 0, "index_build_ns": 0},
  "wal": {"records": 0, "bytes": 0, "fsyncs": 0, "group_batches": 0, "group_records": 0, "replayed": 0, "checkpoints": 0, "last_seq": 0, "retained_bytes": 0, "snapshot_bytes": 0, "group_batch_size": {"p50": 0, "p90": 0, "p99": 0, "p999": 0, "max": 0, "mean": 0.0}},
  "gauges": {"relations": 0, "total_tuples": 0, "interner_symbols": 0, "index_keys": 0, "index_bytes": 0, "table_bytes": 0, "epoch": 0}
}"#;

    /// A fresh registry's `to_prometheus()`, pinned byte for byte.
    const FRESH_PROMETHEUS: &str = r#"# TYPE bcq_requests_total counter
bcq_requests_total{lane="bounded"} 0
bcq_requests_total{lane="bounded_ra"} 0
bcq_requests_total{lane="budgeted"} 0
# TYPE bcq_tuples_fetched_total counter
bcq_tuples_fetched_total{lane="bounded"} 0
bcq_tuples_fetched_total{lane="bounded_ra"} 0
bcq_tuples_fetched_total{lane="budgeted"} 0
# TYPE bcq_request_latency_ns summary
bcq_request_latency_ns{lane="bounded",quantile="0.5"} 0
bcq_request_latency_ns{lane="bounded",quantile="0.9"} 0
bcq_request_latency_ns{lane="bounded",quantile="0.99"} 0
bcq_request_latency_ns{lane="bounded",quantile="0.999"} 0
bcq_request_latency_ns_count{lane="bounded"} 0
bcq_request_latency_ns{lane="bounded_ra",quantile="0.5"} 0
bcq_request_latency_ns{lane="bounded_ra",quantile="0.9"} 0
bcq_request_latency_ns{lane="bounded_ra",quantile="0.99"} 0
bcq_request_latency_ns{lane="bounded_ra",quantile="0.999"} 0
bcq_request_latency_ns_count{lane="bounded_ra"} 0
bcq_request_latency_ns{lane="budgeted",quantile="0.5"} 0
bcq_request_latency_ns{lane="budgeted",quantile="0.9"} 0
bcq_request_latency_ns{lane="budgeted",quantile="0.99"} 0
bcq_request_latency_ns{lane="budgeted",quantile="0.999"} 0
bcq_request_latency_ns_count{lane="budgeted"} 0
# TYPE bcq_phase_latency_ns summary
# TYPE bcq_sql_requests_total counter
bcq_sql_requests_total 0
# TYPE bcq_sql_literals_lifted_total counter
bcq_sql_literals_lifted_total 0
# TYPE bcq_admission_rejected_total counter
bcq_admission_rejected_total 0
# TYPE bcq_budget_completed_total counter
bcq_budget_completed_total 0
# TYPE bcq_budget_exhausted_total counter
bcq_budget_exhausted_total 0
# TYPE bcq_plan_cache_hits_total counter
bcq_plan_cache_hits_total 0
# TYPE bcq_plan_cache_misses_total counter
bcq_plan_cache_misses_total 0
# TYPE bcq_plan_cache_evictions_total counter
bcq_plan_cache_evictions_total 0
# TYPE bcq_plan_cache_entries gauge
bcq_plan_cache_entries 0
# TYPE bcq_writes_inserts_total counter
bcq_writes_inserts_total 0
# TYPE bcq_writes_deletes_total counter
bcq_writes_deletes_total 0
# TYPE bcq_writes_bulk_updates_total counter
bcq_writes_bulk_updates_total 0
# TYPE bcq_view_recomputes_total counter
bcq_view_recomputes_total 0
# TYPE bcq_cow_shard_clones_total counter
bcq_cow_shard_clones_total 0
# TYPE bcq_cow_cells_cloned_total counter
bcq_cow_cells_cloned_total 0
# TYPE bcq_write_conflicts_total counter
bcq_write_conflicts_total 0
# TYPE bcq_ingest_rows_total counter
bcq_ingest_rows_total 0
# TYPE bcq_ingest_chunks_total counter
bcq_ingest_chunks_total 0
# TYPE bcq_ingest_bytes_total counter
bcq_ingest_bytes_total 0
# TYPE bcq_ingest_intern_batch_hits_total counter
bcq_ingest_intern_batch_hits_total 0
# TYPE bcq_ingest_index_build_ns_total counter
bcq_ingest_index_build_ns_total 0
# TYPE bcq_wal_records_total counter
bcq_wal_records_total 0
# TYPE bcq_wal_bytes_total counter
bcq_wal_bytes_total 0
# TYPE bcq_wal_fsyncs_total counter
bcq_wal_fsyncs_total 0
# TYPE bcq_wal_group_batches_total counter
bcq_wal_group_batches_total 0
# TYPE bcq_wal_group_records_total counter
bcq_wal_group_records_total 0
# TYPE bcq_wal_replayed_total counter
bcq_wal_replayed_total 0
# TYPE bcq_wal_checkpoints_total counter
bcq_wal_checkpoints_total 0
# TYPE bcq_wal_last_seq gauge
bcq_wal_last_seq 0
# TYPE bcq_wal_retained_bytes gauge
bcq_wal_retained_bytes 0
# TYPE bcq_snapshot_bytes gauge
bcq_snapshot_bytes 0
# TYPE bcq_relations gauge
bcq_relations 0
# TYPE bcq_total_tuples gauge
bcq_total_tuples 0
# TYPE bcq_interner_symbols gauge
bcq_interner_symbols 0
# TYPE bcq_index_keys gauge
bcq_index_keys 0
# TYPE bcq_index_bytes gauge
bcq_index_bytes 0
# TYPE bcq_table_bytes gauge
bcq_table_bytes 0
# TYPE bcq_epoch gauge
bcq_epoch 0
"#;

    #[test]
    fn expositions_match_the_pinned_goldens() {
        let fresh = MetricsRegistry::new().snapshot();
        for (snap, json, prometheus) in [
            (sample(), SAMPLE_JSON, SAMPLE_PROMETHEUS),
            (fresh, FRESH_JSON, FRESH_PROMETHEUS),
        ] {
            assert_eq!(snap.to_json(), json);
            assert_eq!(snap.to_prometheus(), prometheus);
        }
    }
}
