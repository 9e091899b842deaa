//! Metric names, units and the result lines.
//!
//! The two lists below are the benchmark's vocabulary; `BENCHMARK.json`
//! repeats them (with direction and bound) and `check.sh` asserts the two
//! agree. Every run prints every name of its list, on every workload.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: what a user of the system sees. Printed by an
/// untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("read_p50_us", "us"),
    ("adhoc_p50_us", "us"),
    ("scale_flatness", "ratio"),
    ("write_p50_us", "us"),
    ("peak_rss_mb", "MB"),
    ("disk_bytes_per_user_byte", "ratio"),
];

/// Per-layer metrics, prefixed by crate/module. Printed by a traced run
/// (`--trace 1`). The unprefixed ones are end-to-end candidates that do
/// not repeat within their bound on this shared sandbox — tail latencies,
/// rates, and whatever waits for its disk or is timed once over seconds —
/// so they keep their names and are printed without a bound. `failed_share` is
/// always 0 on an accepted run, so it cannot carry a relative bound either.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("read_p99_us", "us"),
    ("read_ops_per_s", "1/s"),
    ("write_p99_us", "us"),
    ("write_ops_per_s", "1/s"),
    ("load_rows_per_s", "1/s"),
    ("recover_s", "s"),
    ("failed_share", "ratio"),
    ("core.parse_us", "us"),
    ("core.ebcheck_us", "us"),
    ("core.qplan_us", "us"),
    ("core.cost_bound_mean", "count"),
    ("exec.bind_us", "us"),
    ("exec.eval_dq_us", "us"),
    ("exec.tuples_fetched_per_req", "count"),
    ("exec.rows_out_per_req", "count"),
    ("exec.bound_utilisation_max", "ratio"),
    ("storage.insert_inplace_us", "us"),
    ("storage.delete_p50_us", "us"),
    ("storage.cow_clones_per_write", "count"),
    ("storage.cow_cells_per_write", "count"),
    ("storage.bulk_append_ns_per_row", "ns"),
    ("storage.index_build_ns_per_row", "ns"),
    ("storage.rss_bytes_per_row", "bytes"),
    ("durability.wal_bytes_per_write", "bytes"),
    ("durability.fsyncs_per_write", "count"),
    ("durability.group_batch_mean", "count"),
    ("durability.wal_append_us", "us"),
    ("durability.fsync_wait_us", "us"),
    ("durability.checkpoint_s", "s"),
    ("durability.snapshot_bytes", "bytes"),
    ("durability.wal_bytes_total", "bytes"),
    ("durability.replayed_records", "count"),
    ("durability.replay_rows_per_s", "1/s"),
    ("service.cache.hit_share", "ratio"),
    ("service.cache.evictions_per_req", "count"),
    ("service.cache.revalidations_per_req", "count"),
    ("service.cache.prepare_hit_us", "us"),
    ("service.server.execute_us", "us"),
    ("service.server.execute_self_us", "us"),
    ("service.server.session_overhead_us", "us"),
    ("service.server.phase_cache_lookup_us", "us"),
    ("service.server.phase_compile_us", "us"),
    ("service.server.phase_bind_us", "us"),
    ("service.server.phase_execute_us", "us"),
    ("service.server.phase_respond_us", "us"),
    ("service.server.commit_hold_us", "us"),
    ("service.server.write_conflicts_per_write", "count"),
    ("service.shared.snapshot_us", "us"),
    ("service.net.ping_rtt_us", "us"),
    ("service.net.self_us", "us"),
    ("service.net.frames_per_s", "1/s"),
    ("telemetry.trace_overhead_ratio", "ratio"),
    ("telemetry.requests_delta_mismatch", "count"),
    ("telemetry.unattributed_us", "us"),
    ("telemetry.span_overhead_us", "us"),
    ("workload.generate_ns_per_row", "ns"),
];

/// Where and how a result was measured; printed with every result so a
/// number can never be read without its host, build and load.
pub struct Context {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    pub nproc: usize,
    pub clients: usize,
    pub main_sf: f64,
    pub ref_sf: f64,
    pub main_rows: u64,
    pub ref_rows: u64,
    pub sync_policy: String,
    pub setup_repeats: usize,
    /// `(class, samples measured, samples beyond its p99)`.
    pub samples: Vec<(&'static str, usize, usize)>,
}

impl Context {
    pub fn to_json(&self) -> String {
        let mut samples = String::new();
        for (i, (class, n, beyond)) in self.samples.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(
                samples,
                "{sep}\"{class}\": {{\"samples\": {n}, \"beyond_p99\": {beyond}}}"
            );
        }
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"window_s\": {}, \"traced\": {}, \"smoke\": {}, \
             \"nproc\": {}, \"clients\": {}, \"loop\": \"closed\", \"commit\": \"{}\", \"rustc\": \"{}\", \
             \"scale_factor\": {}, \"rows\": {}, \"reference_scale_factor\": {}, \"reference_rows\": {}, \
             \"sync_policy\": \"{}\", \"setup_repeats\": {}, \"samples\": {{{samples}}}}}",
            self.workload,
            self.seed,
            self.seconds,
            self.traced,
            self.smoke,
            self.nproc,
            self.clients,
            env!("BENCH_COMMIT"),
            env!("BENCH_RUSTC"),
            self.main_sf,
            self.main_rows,
            self.ref_sf,
            self.ref_rows,
            self.sync_policy,
            self.setup_repeats,
        )
    }
}

/// What one run measured.
pub struct Outcome {
    pub context: Context,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable explanations of every failed check.
    pub problems: Vec<String>,
    pub values: BTreeMap<&'static str, f64>,
    /// Free-form lines printed under the metrics (the traced stacks).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    fn names(&self) -> &'static [(&'static str, &'static str)] {
        if self.context.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// The table a person reads: every metric by name with its unit, then
    /// the notes, then the context.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, unit) in self.names() {
            let _ = writeln!(out, "{name:<44} {:>18.6} {unit}", self.value(name));
        }
        for note in &self.notes {
            let _ = writeln!(out, "{note}");
        }
        for p in &self.problems {
            let _ = writeln!(out, "PROBLEM: {p}");
        }
        let _ = writeln!(out, "context {}", self.context.to_json());
        out
    }

    fn value(&self, name: &str) -> f64 {
        *self
            .values
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"))
    }

    /// The machine-readable result: the last line of standard output.
    pub fn result_line(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, unit)) in self.names().iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let v = self.value(name);
            assert!(v.is_finite(), "metric {name} is not finite");
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
        )
    }
}

/// `VmHWM` of this process in MB (peak resident set size).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }
}
