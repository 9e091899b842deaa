//! Helpers shared by the bench targets.

/// Folds hand-collected per-sample ns/op windows into a
/// [`criterion::Measured`] (same statistics `measure_median_ns` computes,
/// for loops it cannot express — windows that must interleave, or that
/// carry untimed work between timed calls).
pub(crate) fn summarize(mut per_sample: Vec<f64>, iters: usize) -> criterion::Measured {
    per_sample.sort_by(|a, b| a.total_cmp(b));
    let n = per_sample.len();
    let pct = |q: f64| per_sample[((n - 1) as f64 * q).round() as usize];
    criterion::Measured {
        ns: per_sample[n / 2],
        min_ns: per_sample[0],
        mean_ns: per_sample.iter().sum::<f64>() / n as f64,
        p90_ns: pct(0.90),
        p99_ns: pct(0.99),
        samples: n,
        iters: iters as u64,
    }
}
