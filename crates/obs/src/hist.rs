//! Fixed-bucket log2 histograms.
//!
//! A [`HistogramSnapshot`] has 64 power-of-two buckets: bucket 0 holds
//! the value 0, bucket `i` (1 ≤ i < 63) holds values in
//! `[2^(i-1), 2^i - 1]`, and bucket 63 is the overflow tail. The
//! mapping is one `leading_zeros` — no search, no configuration, no
//! floats — which is why every lifetime/size/latency metric in the
//! workspace shares this one shape: snapshots from different runs are
//! always bucket-compatible.
//!
//! A producer records into its own snapshot and publishes it with
//! [`Registry::absorb`](crate::Registry::absorb).

/// Number of buckets in every [`HistogramSnapshot`].
pub(crate) const HIST_BUCKETS: usize = 64;

/// The bucket a value falls into.
#[inline]
pub(crate) fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((u64::BITS - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

/// The inclusive upper bound of bucket `i`, or `None` for the overflow
/// bucket (Prometheus `+Inf`).
pub(crate) fn bucket_le(i: usize) -> Option<u64> {
    if i + 1 >= HIST_BUCKETS {
        None
    } else if i == 0 {
        // Bucket 0 covers exactly {0}.
        Some(0)
    } else {
        Some((1u64 << i) - 1)
    }
}

/// A log2 histogram: what producers record into, and what renders and
/// persists.
///
/// # Examples
///
/// ```
/// use lifepred_obs::HistogramSnapshot;
///
/// let mut h = HistogramSnapshot::empty();
/// for v in [0u64, 1, 5, 5, 300] {
///     h.record(v);
/// }
/// assert_eq!(h.count, 5);
/// assert_eq!(h.sum, 311);
/// assert_eq!(h.max, 300);
/// assert!(h.quantile(0.5) >= 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
    /// Per-bucket observation counts: bucket 0 holds 0, bucket `i`
    /// holds `[2^(i-1), 2^i)`, and the last bucket everything above.
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot::empty()
    }
}

impl HistogramSnapshot {
    /// An empty snapshot.
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            max: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }

    /// Records one observation — the local half of the batch pattern:
    /// accumulate here, then
    /// [`Registry::absorb`](crate::Registry::absorb) the result.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        if v > self.max {
            self.max = v;
        }
        self.buckets[bucket_of(v)] += 1;
    }

    /// Folds `other` into `self`, bucket by bucket — the result is
    /// exactly what one histogram would hold had it seen both
    /// observation streams.
    ///
    /// A snapshot carries no metric name, so this cannot tell whether
    /// the two sides describe the same metric: pairing by name is the
    /// caller's contract. [`Snapshot::merge`](crate::Snapshot::merge)
    /// does that pairing and flags unpaired names with the
    /// [`MERGE_NAME_MISSES_METRIC`](crate::registry::MERGE_NAME_MISSES_METRIC)
    /// warning counter; call sites merging bare `HistogramSnapshot`s
    /// get no such net.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
    }

    /// An upper bound for the `q`-quantile (0 ≤ q ≤ 1): the inclusive
    /// upper bound of the bucket holding that rank, clamped to the
    /// observed maximum. Resolution is the bucket width (a factor of
    /// two), which is all a fixed-bucket histogram can promise.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return bucket_le(i).unwrap_or(u64::MAX).min(self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_mapping_is_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn bucket_bounds_cover_their_values() {
        for v in [0u64, 1, 2, 3, 4, 7, 8, 100, 4096, 1 << 40] {
            let i = bucket_of(v);
            if let Some(le) = bucket_le(i) {
                assert!(v <= le, "value {v} above bucket {i} bound {le}");
            }
            if i > 1 {
                let below = bucket_le(i - 1).expect("interior bucket");
                assert!(v > below, "value {v} not above bucket {}'s bound", i - 1);
            }
        }
        assert_eq!(bucket_le(0), Some(0));
        assert_eq!(bucket_le(1), Some(1));
        assert_eq!(bucket_le(2), Some(3));
        assert_eq!(bucket_le(HIST_BUCKETS - 1), None);
    }

    fn of(values: impl IntoIterator<Item = u64>) -> HistogramSnapshot {
        let mut h = HistogramSnapshot::empty();
        for v in values {
            h.record(v);
        }
        h
    }

    #[test]
    fn record_aggregates_counts_and_sum() {
        let s = of(1..=100);
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 5050);
        assert_eq!(s.max, 100);
    }

    #[test]
    fn quantiles_walk_the_buckets() {
        let s = of(std::iter::repeat_n(8, 90).chain(std::iter::repeat_n(100_000, 10)));
        assert!(s.quantile(0.5) < 16, "median {}", s.quantile(0.5));
        assert!(s.quantile(0.99) >= 65536, "p99 {}", s.quantile(0.99));
        assert_eq!(s.quantile(1.0), 100_000);
    }
}
