//! Lock-free log-linear latency histograms (HDR-style fixed bucket layout).
//!
//! The record path is a single relaxed `fetch_add` on a preallocated
//! bucket: no lock, no allocation, no retry loop. Bucket boundaries are
//! **log-linear**: values below 2⁵ get exact unit buckets; above that,
//! every power-of-two octave is split into 2⁵ = 32 linear sub-buckets, so
//! the recorded value is always within `1/32` (≈ 3.1 %) of the bucket it
//! lands in. That resolution is fixed at compile time — the layout never
//! adapts, which is what makes the histogram mergeable bucket-by-bucket
//! and the record path branch-predictable.
//!
//! Counts above [`MAX_TRACKABLE`] (≈ 2⁴⁰ ns ≈ 18 minutes) saturate into
//! the top bucket rather than being dropped, so `count()` is always the
//! number of `record` calls.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket resolution: each power-of-two octave is split into
/// `2^SUB_BITS` linear buckets.
pub const SUB_BITS: u32 = 5;
const SUBS: usize = 1 << SUB_BITS;
/// Number of log-linear octaves tracked above the exact range.
const OCTAVES: usize = 36;
/// Total number of buckets in every histogram (fixed layout).
pub const NUM_BUCKETS: usize = SUBS + OCTAVES * SUBS;
/// Values at or above this saturate into the top bucket.
pub const MAX_TRACKABLE: u64 = ((SUBS + (SUBS - 1)) as u64) << (OCTAVES - 1);

/// Maps a value to its bucket index. Total (every `u64` maps somewhere)
/// and monotone (larger values never map to smaller buckets).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUBS as u64 {
        return v as usize;
    }
    // Highest set bit h >= SUB_BITS; the octave keeps the top SUB_BITS+1
    // bits, the sub-bucket is the SUB_BITS bits below the leading one.
    let h = 63 - v.leading_zeros();
    let octave = (h - SUB_BITS) as usize;
    let sub = ((v >> (h - SUB_BITS)) as usize) - SUBS;
    (SUBS + octave * SUBS + sub).min(NUM_BUCKETS - 1)
}

/// Inclusive lower bound of bucket `i` (the smallest value mapping to it).
#[inline]
pub fn bucket_lower(i: usize) -> u64 {
    debug_assert!(i < NUM_BUCKETS);
    if i < SUBS {
        i as u64
    } else {
        let octave = (i - SUBS) / SUBS;
        let sub = (i - SUBS) % SUBS;
        ((SUBS + sub) as u64) << octave
    }
}

/// Width of bucket `i`; its values are `lower .. lower + width`.
#[inline]
pub fn bucket_width(i: usize) -> u64 {
    debug_assert!(i < NUM_BUCKETS);
    if i < SUBS {
        1
    } else {
        1u64 << ((i - SUBS) / SUBS)
    }
}

/// A fixed-layout, lock-free histogram. `record` is wait-free: one
/// relaxed `fetch_add` on the value's bucket.
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.snapshot().count())
            .finish()
    }
}

impl Histogram {
    /// An empty histogram with all buckets preallocated.
    pub fn new() -> Self {
        let buckets = (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Histogram { buckets }
    }

    /// Records one observation. Wait-free, allocation-free.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the bucket counts. Concurrent recording is
    /// allowed; the snapshot is per-bucket atomic (counts racing in during
    /// the copy land in either this snapshot or the next).
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// An owned, mergeable copy of a [`Histogram`]'s buckets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    buckets: Vec<u64>,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistSnapshot {
    /// A snapshot with zero observations.
    pub fn empty() -> Self {
        HistSnapshot {
            buckets: vec![0; NUM_BUCKETS],
        }
    }

    /// Total number of recorded observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Adds `other`'s counts into `self`. Because the bucket layout is
    /// fixed, `merge` is exact: the result equals the histogram of the
    /// concatenated observation streams (merge is associative and
    /// commutative, bucket by bucket).
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`), estimated as the midpoint of the
    /// bucket holding the `ceil(q · count)`-th smallest observation. The
    /// estimate is within the bucket's width of the true value, i.e. a
    /// relative error of at most `1/2^SUB_BITS` (≈ 3.1 %) for values in
    /// the log-linear range. Returns 0 on an empty snapshot.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_lower(i) + bucket_width(i) / 2;
            }
        }
        unreachable!("rank <= count")
    }

    /// Upper edge of the highest non-empty bucket (an upper bound on the
    /// maximum observation; exact for values in the unit-bucket range).
    pub fn max(&self) -> u64 {
        match self.buckets.iter().rposition(|&c| c > 0) {
            Some(i) => bucket_lower(i) + bucket_width(i) - 1,
            None => 0,
        }
    }

    /// Approximate mean: Σ (bucket midpoint × count) / count, so it
    /// carries the same ≤ 3.1 % per-observation error as [`Self::quantile`].
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            return 0.0;
        }
        let sum: f64 = self
            .buckets
            .iter()
            .enumerate()
            .map(|(i, &c)| c as f64 * (bucket_lower(i) + bucket_width(i) / 2) as f64)
            .sum();
        sum / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_round_trip_lower_and_upper_edges() {
        // Every bucket's inclusive lower and upper edge map back to it.
        for i in 0..NUM_BUCKETS {
            let lo = bucket_lower(i);
            let w = bucket_width(i);
            assert_eq!(bucket_index(lo), i, "lower edge of bucket {i}");
            if i < NUM_BUCKETS - 1 {
                assert_eq!(bucket_index(lo + w - 1), i, "upper edge of bucket {i}");
                // Boundaries tile the axis with no gaps or overlaps.
                assert_eq!(bucket_lower(i + 1), lo + w, "bucket {i} abuts {}", i + 1);
            }
        }
    }

    #[test]
    fn bucket_index_is_monotone_and_total() {
        let probes = [
            0u64,
            1,
            31,
            32,
            33,
            63,
            64,
            1000,
            1_000_000,
            MAX_TRACKABLE - 1,
            MAX_TRACKABLE,
            u64::MAX,
        ];
        let mut last = 0;
        for &v in &probes {
            let i = bucket_index(v);
            assert!(i >= last, "monotone at {v}");
            assert!(i < NUM_BUCKETS);
            last = i;
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1, "saturates");
    }

    #[test]
    fn quantile_error_is_within_bucket_resolution() {
        // A geometric sweep: the estimate must stay within 1/32 relative
        // error of the true sample for every quantile probed.
        let h = Histogram::new();
        let mut values: Vec<u64> = Vec::new();
        let mut v = 1u64;
        while v < 100_000_000 {
            for k in 0..7 {
                values.push(v + k * (v / 10));
            }
            v = v.saturating_mul(3) / 2 + 1;
        }
        for &x in &values {
            h.record(x);
        }
        values.sort_unstable();
        let snap = h.snapshot();
        for &q in &[0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let truth = values[rank - 1];
            let est = snap.quantile(q);
            let err = (est as f64 - truth as f64).abs();
            let bound = (truth as f64) / 32.0 + 1.0;
            assert!(
                err <= bound,
                "q={q}: estimate {est} vs true {truth} (err {err} > bound {bound})"
            );
        }
    }

    #[test]
    fn merge_is_associative_and_exact() {
        let samples: [&[u64]; 3] = [&[1, 5, 900, 40_000], &[2, 2, 2, 77], &[1_000_000, 31]];
        let snaps: Vec<HistSnapshot> = samples
            .iter()
            .map(|s| {
                let h = Histogram::new();
                for &v in *s {
                    h.record(v);
                }
                h.snapshot()
            })
            .collect();

        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)
        let mut left = snaps[0].clone();
        left.merge(&snaps[1]);
        left.merge(&snaps[2]);
        let mut bc = snaps[1].clone();
        bc.merge(&snaps[2]);
        let mut right = snaps[0].clone();
        right.merge(&bc);
        assert_eq!(left, right);

        // ...and equals the histogram of the concatenated stream.
        let all = Histogram::new();
        for s in samples {
            for &v in s {
                all.record(v);
            }
        }
        assert_eq!(left, all.snapshot());
        assert_eq!(left.count(), 10);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        use std::sync::Arc;
        let h = Arc::new(Histogram::new());
        let threads = 4;
        let per_thread = 100_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        // Mix of small exact values and log-range values.
                        h.record((i % 31) + (t as u64) * 1000);
                    }
                })
            })
            .collect();
        for j in handles {
            j.join().unwrap();
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), threads as u64 * per_thread);
    }

    #[test]
    fn empty_snapshot_is_all_zeros() {
        let s = HistSnapshot::empty();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.mean(), 0.0);
    }
}
