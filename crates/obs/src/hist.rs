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
/// assert_eq!(h.buckets[3], 2); // 5 twice, in [4, 8)
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
}
