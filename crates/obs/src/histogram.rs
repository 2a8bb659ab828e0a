//! Log-bucketed histogram mathematics and snapshots.
//!
//! Values are `u64`s binned into power-of-two buckets: bucket `0` holds
//! the value `0`, and bucket `i ≥ 1` holds `[2^(i−1), 2^i)`. With 64
//! value bits that is [`BUCKETS`] `= 65` buckets, enough to bin any `u64`
//! — nanosecond latencies, per-request fill chunk counts and eviction
//! batch sizes all land in the same fixed, allocation-free layout.
//!
//! The bucket functions here are pure; the per-writer cells live in a
//! [`crate::Tally`], and [`HistogramSnapshot`] is the exported (plain
//! integer) form the registry merges them into.

use vcdn_types::impl_json_struct;

/// Number of buckets: one for zero plus one per value bit.
pub const BUCKETS: usize = 65;

/// The bucket a value falls into: `0` for `0`, else `⌊log2 v⌋ + 1`.
///
/// # Examples
///
/// ```
/// use vcdn_obs::histogram::bucket_index;
///
/// assert_eq!(bucket_index(0), 0);
/// assert_eq!(bucket_index(1), 1);
/// assert_eq!(bucket_index(2), 2);
/// assert_eq!(bucket_index(3), 2);
/// assert_eq!(bucket_index(4), 3);
/// assert_eq!(bucket_index(u64::MAX), 64);
/// ```
pub fn bucket_index(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// Inclusive lower bound of bucket `i`: `0`, then `2^(i−1)`.
///
/// # Panics
///
/// Panics if `i >= BUCKETS`.
pub fn bucket_lower(i: usize) -> u64 {
    assert!(i < BUCKETS, "bucket {i} out of range");
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Inclusive upper bound of bucket `i`: `0`, then `2^i − 1` (saturating at
/// `u64::MAX` for the top bucket).
///
/// # Panics
///
/// Panics if `i >= BUCKETS`.
pub fn bucket_upper(i: usize) -> u64 {
    assert!(i < BUCKETS, "bucket {i} out of range");
    if i == 0 {
        0
    } else if i == BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A histogram's exported state: total count, exact sum, and per-bucket
/// counts (length [`BUCKETS`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Total samples observed.
    pub count: u64,
    /// Exact sum of all observed values.
    pub sum: u64,
    /// Per-bucket sample counts.
    pub buckets: Vec<u64>,
}

impl_json_struct!(HistogramSnapshot {
    count,
    sum,
    buckets,
});

impl HistogramSnapshot {
    /// Bins one value directly into the snapshot, allocating the fixed
    /// [`BUCKETS`] layout on first use. This is the single-threaded
    /// sketch path (window accumulation); metrics record through a
    /// [`crate::Tally`].
    pub fn observe(&mut self, value: u64) {
        if self.buckets.len() < BUCKETS {
            self.buckets.resize(BUCKETS, 0);
        }
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value;
    }

    /// Folds `other` into `self` bucket-wise. Sketch merging is a
    /// commutative monoid (element-wise sums), which is what makes
    /// per-shard window sketches fold into engine-level ones in any
    /// order. Handles the `Default` empty-bucket form on either side.
    pub fn merge_from(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (into, &from) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *into += from;
        }
    }

    /// Mean observed value, or `0.0` with no samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// An upper bound on the `q`-quantile (`0 ≤ q ≤ 1`): the inclusive
    /// upper edge of the bucket holding the `⌈q·count⌉`-th smallest
    /// sample, or `0` with no samples.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= q <= 1.0`.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.count == 0 {
            return 0;
        }
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i);
            }
        }
        bucket_upper(BUCKETS - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_partition_the_domain() {
        // Every bucket's range starts right after the previous one ends.
        for i in 1..BUCKETS - 1 {
            assert_eq!(bucket_lower(i), bucket_upper(i - 1) + 1, "bucket {i}");
            assert!(bucket_lower(i) <= bucket_upper(i));
        }
        assert_eq!(bucket_upper(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn values_land_inside_their_bucket() {
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024, u64::MAX / 2, u64::MAX] {
            let i = bucket_index(v);
            assert!(bucket_lower(i) <= v && v <= bucket_upper(i), "v={v} i={i}");
        }
    }

    #[test]
    fn mean_and_quantile_of_empty_are_zero() {
        let h = HistogramSnapshot::default();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile_upper_bound(0.99), 0);
    }

    #[test]
    fn observe_and_merge_agree_with_direct_binning() {
        let mut a = HistogramSnapshot::default();
        let mut b = HistogramSnapshot::default();
        for v in [1u64, 2, 3] {
            a.observe(v);
        }
        for v in [100u64, 1000] {
            b.observe(v);
        }
        // Merging into a Default (empty-bucket) snapshot must also work.
        let mut merged = HistogramSnapshot::default();
        merged.merge_from(&a);
        merged.merge_from(&b);
        let mut direct = HistogramSnapshot::default();
        for v in [1u64, 2, 3, 100, 1000] {
            direct.observe(v);
        }
        assert_eq!(merged, direct);
        assert_eq!(merged.count, 5);
        assert_eq!(merged.sum, 1106);
    }

    #[test]
    fn quantile_bound_covers_observed_samples() {
        let mut buckets = vec![0u64; BUCKETS];
        for v in [1u64, 2, 3, 100, 1000] {
            buckets[bucket_index(v)] += 1;
        }
        let h = HistogramSnapshot {
            count: 5,
            sum: 1106,
            buckets,
        };
        assert!(h.quantile_upper_bound(1.0) >= 1000);
        assert!(h.quantile_upper_bound(0.2) >= 1);
        assert!((h.mean() - 1106.0 / 5.0).abs() < 1e-12);
    }
}
