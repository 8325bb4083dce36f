//! Log-linear bucket layout shared by [`LocalHistogram`] (plain counters,
//! always compiled) and the atomic `LatencyHistogram` in `lib.rs`.
//!
//! The layout is the classic HDR-style log-linear scheme: values below
//! `2^SUB_BITS` get one exact bucket each, and every power-of-two octave
//! above that is split into `2^SUB_BITS` equal-width sub-buckets. With
//! `SUB_BITS = 3` the worst-case relative width of a bucket is 1/8 = 12.5%,
//! which is the "one bucket's relative error" bound the property tests
//! assert against a sorted-Vec oracle.
//!
//! Bucket count: 8 exact buckets + 61 octaves (exponents 3..=63) x 8
//! sub-buckets = 496. At four bytes per bucket a histogram is ~2 KB and
//! covers the full `u64` range, so nanosecond timings never clip.

/// log2 of the number of sub-buckets per octave.
pub const SUB_BITS: u32 = 3;

/// Number of sub-buckets per octave (8).
const SUB_BUCKETS: usize = 1 << SUB_BITS;

/// Total number of buckets: 8 exact + (63 - 3 + 1) octaves x 8.
pub const BUCKET_COUNT: usize = SUB_BUCKETS + (64 - SUB_BITS as usize) * SUB_BUCKETS;

/// Maps a value to its bucket index. Total order on values maps to a
/// non-strict total order on indices (monotone), values below 8 are exact,
/// and `u64::MAX` maps to `BUCKET_COUNT - 1`.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS as u64 {
        return value as usize;
    }
    let exp = 63 - value.leading_zeros(); // >= SUB_BITS here
    let sub = ((value >> (exp - SUB_BITS)) & (SUB_BUCKETS as u64 - 1)) as usize;
    SUB_BUCKETS + (exp - SUB_BITS) as usize * SUB_BUCKETS + sub
}

/// Smallest value that lands in bucket `index`. Quantile estimates report
/// this lower edge, so they never overshoot the true order statistic.
#[inline]
pub fn bucket_lower_bound(index: usize) -> u64 {
    debug_assert!(index < BUCKET_COUNT);
    if index < SUB_BUCKETS {
        return index as u64;
    }
    let exp = SUB_BITS + ((index - SUB_BUCKETS) / SUB_BUCKETS) as u32;
    let sub = ((index - SUB_BUCKETS) % SUB_BUCKETS) as u64;
    (SUB_BUCKETS as u64 + sub) << (exp - SUB_BITS)
}

/// Largest value that lands in bucket `index` (inclusive upper edge).
#[inline]
pub fn bucket_upper_bound(index: usize) -> u64 {
    debug_assert!(index < BUCKET_COUNT);
    if index + 1 == BUCKET_COUNT {
        u64::MAX
    } else {
        bucket_lower_bound(index + 1) - 1
    }
}

/// Quantile summary reported for a histogram in a snapshot. All values are
/// bucket lower edges (consistent underestimates within 12.5%), except
/// `count`, which is exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSummary {
    /// Exact number of recorded samples.
    pub count: u64,
    /// Bucket-floor of the largest recorded sample (0 when empty).
    pub max: u64,
    /// Median estimate.
    pub p50: u64,
    /// 90th percentile estimate.
    pub p90: u64,
    /// 99th percentile estimate.
    pub p99: u64,
    /// 99.9th percentile estimate.
    pub p999: u64,
}

/// Computes the `q`-quantile (0 < q <= 1) from bucket counts: the lower
/// edge of the first bucket at which the cumulative count reaches
/// `ceil(q * total)`. Returns 0 for an empty histogram.
pub(crate) fn quantile_from_counts(counts: &[u64; BUCKET_COUNT], total: u64, q: f64) -> u64 {
    if total == 0 {
        return 0;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut cumulative = 0u64;
    for (index, &c) in counts.iter().enumerate() {
        cumulative += c;
        if cumulative >= rank {
            return bucket_lower_bound(index);
        }
    }
    // Unreachable when `total` matches the counts, but stay total anyway.
    bucket_lower_bound(BUCKET_COUNT - 1)
}

/// Summarizes raw bucket counts into the fixed quantile set exported by
/// snapshots.
pub(crate) fn summarize_counts(counts: &[u64; BUCKET_COUNT]) -> HistogramSummary {
    let total: u64 = counts.iter().sum();
    let max = counts
        .iter()
        .rposition(|&c| c != 0)
        .map(bucket_lower_bound)
        .unwrap_or(0);
    HistogramSummary {
        count: total,
        max,
        p50: quantile_from_counts(counts, total, 0.50),
        p90: quantile_from_counts(counts, total, 0.90),
        p99: quantile_from_counts(counts, total, 0.99),
        p999: quantile_from_counts(counts, total, 0.999),
    }
}

/// A single-threaded log-linear histogram: plain `u32` buckets, no atomics.
///
/// This type is always functional, independent of the crate's `enabled`
/// feature — it is the per-thread shard used by parallel workers (e.g. the
/// worker pool of `qdelay_sim::paper`) to record contention-free and then
/// flush once into a shared `LatencyHistogram` via `merge_from`. When
/// telemetry is disabled the flush is a no-op but local recording still
/// works, so code that *reads back* its own local histogram keeps behaving.
#[derive(Clone)]
pub struct LocalHistogram {
    buckets: [u32; BUCKET_COUNT],
}

impl Default for LocalHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LocalHistogram {
    /// Creates an empty histogram (~2 KB, on the stack or in a struct).
    pub const fn new() -> Self {
        Self {
            buckets: [0; BUCKET_COUNT],
        }
    }

    /// Records one sample. Saturates per-bucket at `u32::MAX`.
    #[inline]
    pub fn record(&mut self, value: u64) {
        let b = &mut self.buckets[bucket_index(value)];
        *b = b.saturating_add(1);
    }

    /// Adds every bucket of `other` into `self`.
    pub fn merge(&mut self, other: &LocalHistogram) {
        for (dst, &src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst = dst.saturating_add(src);
        }
    }

    /// Exact number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|&c| c as u64).sum()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(|&c| c == 0)
    }

    /// Quantile estimate: lower edge of the bucket holding the
    /// `ceil(q * count)`-th smallest sample. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        quantile_from_counts(&self.widened(), self.count(), q)
    }

    /// Bucket-floor of the largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.buckets
            .iter()
            .rposition(|&c| c != 0)
            .map(bucket_lower_bound)
            .unwrap_or(0)
    }

    /// Full quantile summary (same shape as a snapshot entry).
    pub fn summary(&self) -> HistogramSummary {
        summarize_counts(&self.widened())
    }

    pub(crate) fn bucket_counts(&self) -> &[u32; BUCKET_COUNT] {
        &self.buckets
    }

    fn widened(&self) -> [u64; BUCKET_COUNT] {
        let mut wide = [0u64; BUCKET_COUNT];
        for (dst, &src) in wide.iter_mut().zip(self.buckets.iter()) {
            *dst = src as u64;
        }
        wide
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..8u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_lower_bound(v as usize), v);
        }
    }

    #[test]
    fn bucket_edges_are_continuous_and_monotone() {
        // Every bucket's lower bound must map back to that bucket, and the
        // value just below it must map to the previous bucket.
        for index in 1..BUCKET_COUNT {
            let lo = bucket_lower_bound(index);
            assert_eq!(bucket_index(lo), index, "lower edge of {index}");
            assert_eq!(bucket_index(lo - 1), index - 1, "below edge of {index}");
        }
        assert_eq!(bucket_index(u64::MAX), BUCKET_COUNT - 1);
        assert_eq!(bucket_upper_bound(BUCKET_COUNT - 1), u64::MAX);
    }

    #[test]
    fn relative_width_is_at_most_one_eighth() {
        for index in 8..BUCKET_COUNT {
            let lo = bucket_lower_bound(index) as f64;
            let hi = bucket_upper_bound(index) as f64;
            assert!((hi - lo) / lo <= 0.125 + 1e-12, "bucket {index} too wide");
        }
    }

    #[test]
    fn empty_histogram_summarizes_to_zero() {
        let h = LocalHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.summary(), HistogramSummary::default());
    }

    #[test]
    fn single_value_quantiles() {
        let mut h = LocalHistogram::new();
        h.record(1000);
        let s = h.summary();
        assert_eq!(s.count, 1);
        // 1000 lands in an 8-wide bucket starting at 960... compute exactly:
        let lo = bucket_lower_bound(bucket_index(1000));
        assert_eq!(s.p50, lo);
        assert_eq!(s.p999, lo);
        assert_eq!(s.max, lo);
        assert!(lo <= 1000 && 1000 <= bucket_upper_bound(bucket_index(1000)));
    }
}
