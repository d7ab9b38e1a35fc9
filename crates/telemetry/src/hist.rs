//! Log2-bucketed histograms for per-cycle distributions.
//!
//! The simulator records values every cycle (FTQ occupancy, queue fills)
//! or per event (prefetch lead times), so recording must be O(1) with no
//! allocation on the hot path once the bucket vector has grown. Power-of-
//! two buckets give useful resolution over the 0..~10⁶ range these
//! quantities span while keeping the serialized form tiny.

use crate::json::Json;
use crate::ToJson;

/// One non-empty histogram bucket, for iteration and reporting.
///
/// The bucket covers values `lo ..= hi` inclusive on both ends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Bucket {
    /// Smallest value that lands in this bucket.
    pub lo: u64,
    /// Largest value that lands in this bucket.
    pub hi: u64,
    /// Number of recorded values in `lo ..= hi`.
    pub count: u64,
}

/// A log2-bucketed histogram of `u64` samples.
///
/// Bucket 0 holds exactly the value `0`; bucket `i` (for `i >= 1`) holds
/// values in `2^(i-1) ..= 2^i - 1`. Exact `count`/`sum`/`min`/`max` are
/// tracked alongside the buckets, so the mean is exact even though
/// percentiles are bucket-resolution estimates.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Index of the bucket that `value` falls in.
    fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Inclusive value range covered by bucket `index`.
    fn bucket_range(index: usize) -> (u64, u64) {
        if index == 0 {
            (0, 0)
        } else if index >= 64 {
            (1u64 << 63, u64::MAX)
        } else {
            (1u64 << (index - 1), (1u64 << index) - 1)
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` identical samples.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = Self::bucket_index(value);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += n;
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += n;
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
    }

    /// Discards all samples.
    pub fn clear(&mut self) {
        self.buckets.clear();
        self.count = 0;
        self.sum = 0;
        self.min = 0;
        self.max = 0;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Exact arithmetic mean, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated p-th percentile (`0.0 ..= 1.0`), at bucket resolution.
    ///
    /// Returns the upper bound of the bucket containing the p-th sample
    /// (clamped to the observed max), or `None` if the histogram is empty.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let p = p.clamp(0.0, 1.0);
        // Rank of the target sample, 1-based.
        let target = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                let (_, hi) = Self::bucket_range(idx);
                return Some(hi.min(self.max));
            }
        }
        Some(self.max)
    }

    /// Reconstructs a histogram from its [`ToJson`] form.
    ///
    /// The inverse of [`Histogram::to_json`]: bucket counts are restored
    /// from the `buckets` array (each entry's `lo` selects its log2
    /// bucket) and the exact `count`/`sum`/`min`/`max` come from the
    /// top-level fields, so `from_json(h.to_json()) == h` for any
    /// histogram. Derived fields (`mean`, percentiles) are recomputed,
    /// not read. Returns `None` if a required field is missing or the
    /// bucket counts disagree with the top-level `count`.
    pub fn from_json(v: &Json) -> Option<Histogram> {
        let mut h = Histogram::new();
        for b in v.get("buckets")?.as_arr()? {
            let lo = b.get("lo")?.as_u64()?;
            let n = b.get("count")?.as_u64()?;
            let idx = Self::bucket_index(lo);
            if idx >= h.buckets.len() {
                h.buckets.resize(idx + 1, 0);
            }
            h.buckets[idx] += n;
            h.count += n;
        }
        if h.count != v.get("count")?.as_u64()? {
            return None;
        }
        h.sum = v.get("sum")?.as_u64()?;
        if h.count > 0 {
            h.min = v.get("min")?.as_u64()?;
            h.max = v.get("max")?.as_u64()?;
        }
        Some(h)
    }

    /// Iterates the non-empty buckets in ascending value order.
    pub fn buckets(&self) -> impl Iterator<Item = Bucket> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(idx, &n)| {
                let (lo, hi) = Self::bucket_range(idx);
                Bucket { lo, hi, count: n }
            })
    }
}

impl ToJson for Histogram {
    /// Serializes as `{count, sum, min, max, mean, p50, p90, p99, buckets}`
    /// where `buckets` is an array of `{lo, hi, count}` for non-empty
    /// buckets only. An empty histogram has `min`/`max`/percentiles `null`.
    fn to_json(&self) -> Json {
        let buckets: Vec<Json> = self
            .buckets()
            .map(|b| {
                Json::obj()
                    .with("lo", b.lo)
                    .with("hi", b.hi)
                    .with("count", b.count)
            })
            .collect();
        Json::obj()
            .with("count", self.count)
            .with("sum", self.sum)
            .with("min", self.min())
            .with("max", self.max())
            .with("mean", self.mean())
            .with("p50", self.percentile(0.50))
            .with("p90", self.percentile(0.90))
            .with("p99", self.percentile(0.99))
            .with("buckets", Json::Arr(buckets))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        // Bucket 0 is exactly {0}; bucket i covers [2^(i-1), 2^i - 1].
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(7), 3);
        assert_eq!(Histogram::bucket_index(8), 4);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        for idx in 1..=63 {
            let (lo, hi) = Histogram::bucket_range(idx);
            assert_eq!(lo, 1u64 << (idx - 1));
            assert_eq!(hi, (1u64 << idx) - 1);
            assert_eq!(Histogram::bucket_index(lo), idx);
            assert_eq!(Histogram::bucket_index(hi), idx);
        }
        // Top bucket's range saturates rather than overflowing the shift.
        let (lo, hi) = Histogram::bucket_range(64);
        assert_eq!(lo, 1u64 << 63);
        assert!(hi >= lo);
    }

    #[test]
    fn exact_stats_tracked_alongside_buckets() {
        let mut h = Histogram::new();
        for v in [0u64, 3, 3, 17] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 23);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(17));
        assert!((h.mean() - 5.75).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_is_well_behaved() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(0.5), None);
        assert_eq!(h.buckets().count(), 0);
        let j = h.to_json();
        assert_eq!(j.get("min"), Some(&Json::Null));
        assert_eq!(j.get("count").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn percentiles_respect_bucket_resolution() {
        let mut h = Histogram::new();
        h.record_n(1, 90); // bucket 1: [1,1]
        h.record_n(100, 10); // bucket 7: [64,127]
        assert_eq!(h.percentile(0.0), Some(1));
        assert_eq!(h.percentile(0.5), Some(1));
        assert_eq!(h.percentile(0.9), Some(1));
        // p99 lands in the [64,127] bucket; clamped to observed max 100.
        assert_eq!(h.percentile(0.99), Some(100));
        assert_eq!(h.percentile(1.0), Some(100));
    }

    #[test]
    fn record_n_zero_is_a_no_op() {
        let mut h = Histogram::new();
        h.record_n(42, 0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
    }

    #[test]
    fn from_json_inverts_to_json_exactly() {
        let mut h = Histogram::new();
        for v in [0u64, 3, 3, 17, 300, 1 << 40] {
            h.record(v);
        }
        let parsed = Json::parse(&h.to_json().to_string()).unwrap();
        assert_eq!(Histogram::from_json(&parsed), Some(h.clone()));
        // Empty histograms round-trip too (min/max are null).
        let empty = Histogram::new();
        assert_eq!(Histogram::from_json(&empty.to_json()), Some(empty));
        // A count mismatch (corrupt document) is rejected, not guessed at.
        let bad = h.to_json().with("count", 999u64);
        assert_eq!(Histogram::from_json(&bad), None);
    }

    #[test]
    fn json_form_round_trips_through_parser() {
        let mut h = Histogram::new();
        for v in [0u64, 3, 3, 17, 300] {
            h.record(v);
        }
        let j = h.to_json();
        let round = Json::parse(&j.to_string()).unwrap();
        assert_eq!(round.get("count").and_then(Json::as_u64), Some(5));
        assert_eq!(round.get("sum").and_then(Json::as_u64), Some(323));
        let buckets = round.get("buckets").and_then(Json::as_arr).unwrap();
        // Non-empty buckets: {0}, [2,3], [16,31], [256,511].
        assert_eq!(buckets.len(), 4);
        assert_eq!(buckets[1].get("lo").and_then(Json::as_u64), Some(2));
        assert_eq!(buckets[1].get("hi").and_then(Json::as_u64), Some(3));
        assert_eq!(buckets[1].get("count").and_then(Json::as_u64), Some(2));
    }
}
