//! Latency samples and the statistics reported from them.
//!
//! Every timed operation is kept as one `u32` of nanoseconds (4.29 s
//! saturating), so percentiles are exact order statistics of the run, not
//! bucket estimates.
//!
//! Three estimators are used, and the README says which metric uses which:
//!
//! * the bounded latencies are **quiet medians**: the measured window is
//!   cut into 100 ms slices, each slice has its median, and the first
//!   decile of those medians is reported. The host this runs on is shared:
//!   the slice medians of one read window sit at 16 µs for a second, then
//!   at 25 µs for half a second, then back, in episodes that have nothing
//!   to do with the program, and from run to run anything between a fifth
//!   and four fifths of a window is spent in the slow state. The
//!   interference only ever slows a slice down, so the quietest slices
//!   are what the program itself costs, and they are what repeats from
//!   run to run;
//! * tail percentiles are plain **order statistics** (nearest rank) over
//!   every sample of the window;
//! * per-layer timings are the **interquartile mean** — the mean of the
//!   middle half of the samples. Layer calls can be a few tens of
//!   nanoseconds, where an integer-nanosecond median reads the same on
//!   every run and hides small movements; the interquartile mean is as
//!   robust against stalls and is continuous.

use std::time::Duration;

/// A slice with fewer samples than this has no usable median.
const MIN_SLICE_SAMPLES: usize = 16;

/// The quantile of the slice medians (and, mirrored, of the slice rates)
/// that stands for the quiet state of the host.
pub const QUIET: f64 = 0.10;

/// Latencies of one operation class, in nanoseconds, in arrival order,
/// with the medians of the time slices closed so far.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    ns: Vec<u32>,
    /// Where the open slice starts in `ns`.
    open_from: usize,
    slice_medians: Vec<u32>,
}

impl Samples {
    #[inline]
    pub fn push(&mut self, d: Duration) {
        self.ns
            .push(u32::try_from(d.as_nanos()).unwrap_or(u32::MAX));
    }

    /// Closes the open time slice: its median joins the slice medians if
    /// the slice holds enough samples to have one.
    pub fn cut(&mut self) {
        let open = &self.ns[self.open_from..];
        if open.len() >= MIN_SLICE_SAMPLES {
            self.slice_medians
                .push(percentile_ns(&mut open.to_vec(), 0.5));
        }
        self.open_from = self.ns.len();
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    pub fn clear(&mut self) {
        *self = Samples::default();
    }

    /// Pools `other`'s samples and closed slices with this one's (an open
    /// slice on either side is closed first).
    pub fn merge(&mut self, other: &Samples) {
        self.cut();
        self.ns.extend_from_slice(&other.ns);
        self.slice_medians.extend_from_slice(&other.slice_medians);
        // The other side's open slice is now this side's, and is closed.
        self.open_from = self.ns.len() - (other.ns.len() - other.open_from);
        self.cut();
    }

    /// The quiet median in microseconds: the first decile of the slice
    /// medians, or the plain median when no slice was closed.
    pub fn quiet_p50_us(&self) -> f64 {
        if self.slice_medians.is_empty() {
            return self.percentile_us(0.5);
        }
        percentile_ns(&mut self.slice_medians.clone(), QUIET) as f64 / 1e3
    }

    /// The `q`-quantile of all samples in microseconds (nearest rank); 0
    /// when empty.
    pub fn percentile_us(&self, q: f64) -> f64 {
        percentile_ns(&mut self.ns.clone(), q) as f64 / 1e3
    }

    /// Samples strictly beyond the `q`-quantile's rank.
    pub fn beyond(&self, q: f64) -> usize {
        self.ns.len() - rank(self.ns.len(), q).min(self.ns.len())
    }

    /// Interquartile mean of all samples in microseconds; 0 when empty.
    pub fn iqm_us(&self) -> f64 {
        interquartile_mean_ns(&mut self.ns.clone()) / 1e3
    }
}

/// 1-based nearest rank of the `q`-quantile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// The `q`-quantile of `ns` by nearest rank: the smallest sample such that
/// at least `q · n` samples are ≤ it. Reorders `ns`. 0 when empty.
pub fn percentile_ns(ns: &mut [u32], q: f64) -> u32 {
    if ns.is_empty() {
        return 0;
    }
    let k = rank(ns.len(), q) - 1;
    *ns.select_nth_unstable(k).1
}

/// Mean of the samples between the first and third quartile ranks
/// (inclusive of the lower, exclusive of the upper). Reorders `ns`.
pub fn interquartile_mean_ns(ns: &mut [u32]) -> f64 {
    let n = ns.len();
    if n == 0 {
        return 0.0;
    }
    if n < 4 {
        return ns.iter().map(|&v| v as f64).sum::<f64>() / n as f64;
    }
    ns.sort_unstable();
    let mid = &ns[n / 4..n - n / 4];
    mid.iter().map(|&v| v as f64).sum::<f64>() / mid.len() as f64
}

/// Median of a handful of floats (set-up repeats); 0 when empty.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.total_cmp(b));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_the_nearest_rank_order_statistic() {
        // 1..=100 shuffled deterministically.
        let mut v: Vec<u32> = (1..=100).map(|i| (i * 37) % 101).collect();
        assert_eq!(percentile_ns(&mut v.clone(), 0.50), 50);
        assert_eq!(percentile_ns(&mut v.clone(), 0.99), 99);
        assert_eq!(percentile_ns(&mut v.clone(), 1.0), 100);
        assert_eq!(percentile_ns(&mut v.clone(), 0.0), 1);
        assert_eq!(percentile_ns(&mut v, 0.001), 1);
        assert_eq!(percentile_ns(&mut [], 0.5), 0);
        assert_eq!(percentile_ns(&mut [7], 0.99), 7);
        // Even count: the lower of the two middle samples (nearest rank).
        assert_eq!(percentile_ns(&mut [4, 1, 3, 2], 0.5), 2);
    }

    #[test]
    fn beyond_counts_samples_past_the_rank() {
        let mut s = Samples::default();
        for i in 0..1000 {
            s.push(Duration::from_nanos(i));
        }
        assert_eq!(s.beyond(0.99), 10);
        assert_eq!(s.beyond(0.5), 500);
        assert_eq!(Samples::default().beyond(0.99), 0);
    }

    #[test]
    fn interquartile_mean_ignores_both_tails() {
        let mut v: Vec<u32> = (0..100).collect();
        v[99] = u32::MAX; // a stall
        v[0] = 0;
        // Middle half is 25..75 → mean 49.5.
        assert!((interquartile_mean_ns(&mut v) - 49.5).abs() < 1e-9);
        assert_eq!(interquartile_mean_ns(&mut []), 0.0);
        assert!((interquartile_mean_ns(&mut [1, 2, 3]) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn median_of_floats() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn quiet_median_is_the_first_decile_of_the_slice_medians() {
        let mut s = Samples::default();
        // Twenty slices of 20 samples: slice k has median 100 + k µs, but
        // half the slices are disturbed and read 50 µs more.
        for k in 0..20u64 {
            let base = 100 + k + if k % 2 == 0 { 50 } else { 0 };
            for _ in 0..20 {
                s.push(Duration::from_micros(base));
            }
            s.cut();
        }
        // Slice medians sorted: 101, 103, ... — the 2nd of 20 is 103.
        assert_eq!(s.quiet_p50_us(), 103.0);
        // The plain median lands between the two states.
        assert_eq!(s.percentile_us(0.5), 119.0);
        // A slice too short to have a median is left out ...
        for _ in 0..MIN_SLICE_SAMPLES - 1 {
            s.push(Duration::from_micros(1));
        }
        s.cut();
        assert_eq!(s.quiet_p50_us(), 103.0);
        // ... and with no slice at all the plain median stands in.
        let mut open = Samples::default();
        open.push(Duration::from_micros(7));
        assert_eq!(open.quiet_p50_us(), 7.0);
        // Merging pools the slices of both sides, open ones included.
        let mut other = Samples::default();
        for i in 0..60 {
            other.push(Duration::from_micros(10));
            if i == 19 || i == 39 {
                other.cut();
            }
        }
        s.merge(&other);
        assert_eq!(s.len(), 20 * 20 + MIN_SLICE_SAMPLES - 1 + 60);
        // 23 slice medians now, three of them 10 µs: the 3rd smallest.
        assert_eq!(s.quiet_p50_us(), 10.0);
    }

    #[test]
    fn samples_saturate_instead_of_wrapping() {
        let mut s = Samples::default();
        s.push(Duration::from_secs(10));
        assert_eq!(s.percentile_us(0.5), u32::MAX as f64 / 1e3);
    }
}
