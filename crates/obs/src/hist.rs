//! Fixed-bucket log2 histograms.
//!
//! A [`LogHistogram`] has 64 power-of-two buckets: bucket 0 holds the
//! value 0, bucket `i` (1 ≤ i < 63) holds values in
//! `[2^(i-1), 2^i - 1]`, and bucket 63 is the overflow tail. The
//! mapping is one `leading_zeros` — no search, no configuration, no
//! floats — which is why every lifetime/size/latency metric in the
//! workspace shares this one shape: snapshots from different runs are
//! always bucket-compatible.
//!
//! Like [`Counter`](crate::Counter), observations shard across padded
//! per-thread rows with Relaxed adds — the tallies are statistical,
//! and no reader acts on one bucket's value;
//! [`LogHistogram::snapshot`] folds the rows into a plain
//! [`HistogramSnapshot`].

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets in every [`LogHistogram`].
pub(crate) const HIST_BUCKETS: usize = 64;

/// Sharding factor: rows of buckets, one per thread slot. Smaller than
/// [`COUNTER_CELLS`](crate::COUNTER_CELLS) because a histogram row is
/// a whole array, not one word.
const HIST_SHARDS: usize = 8;

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

/// One thread-slot's row of buckets, padded so concurrent rows never
/// share a cache line at their boundary.
#[repr(align(64))]
struct Row {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
}

impl Row {
    fn new() -> Row {
        Row {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

impl std::fmt::Debug for Row {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Row").finish_non_exhaustive()
    }
}

/// A concurrent fixed-bucket log2 histogram.
///
/// # Examples
///
/// ```
/// use lifepred_obs::LogHistogram;
///
/// let h = LogHistogram::new();
/// for v in [0u64, 1, 5, 5, 300] {
///     h.observe(v);
/// }
/// let s = h.snapshot();
/// assert_eq!(s.count, 5);
/// assert_eq!(s.sum, 311);
/// assert_eq!(s.max, 300);
/// assert!(s.quantile(0.5) >= 5);
/// ```
#[derive(Debug)]
pub struct LogHistogram {
    rows: Box<[Row]>,
    max: AtomicU64,
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram {
            rows: (0..HIST_SHARDS).map(|_| Row::new()).collect(),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        let row = &self.rows[crate::counter::thread_cell() % HIST_SHARDS];
        let bucket = &row.buckets[bucket_of(v)];
        bucket.fetch_add(1, Ordering::Relaxed);
        row.sum.fetch_add(v, Ordering::Relaxed);
        // Guarded: `fetch_max` is a CAS loop on a line every thread
        // shares, but once the maximum is established the plain load
        // short-circuits — repeated-size workloads never touch it.
        if v > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Folds a locally accumulated [`HistogramSnapshot`] into this
    /// histogram in one pass — the batch counterpart of
    /// [`observe`](Self::observe) for single-threaded producers (a
    /// trace replay, a drained per-shard delta) that record into plain
    /// memory and publish once.
    pub fn absorb(&self, local: &HistogramSnapshot) {
        if local.count == 0 {
            return;
        }
        let row = &self.rows[crate::counter::thread_cell() % HIST_SHARDS];
        for (bucket, &n) in row.buckets.iter().zip(local.buckets.iter()) {
            if n > 0 {
                bucket.fetch_add(n, Ordering::Relaxed);
            }
        }
        row.sum.fetch_add(local.sum, Ordering::Relaxed);
        if local.max > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(local.max, Ordering::Relaxed);
        }
    }

    /// Folds the shard rows into a plain snapshot. Taken while writers
    /// are active it may miss in-flight observations; it never tears an
    /// individual bucket.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HIST_BUCKETS];
        let mut sum = 0u64;
        for row in self.rows.iter() {
            for (acc, b) in buckets.iter_mut().zip(row.buckets.iter()) {
                *acc = acc.wrapping_add(b.load(Ordering::Relaxed));
            }
            sum = sum.wrapping_add(row.sum.load(Ordering::Relaxed));
        }
        HistogramSnapshot {
            count: buckets.iter().sum(),
            sum,
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

/// A plain (non-atomic) histogram state: what renders and persists.
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

    /// Records one observation into this plain snapshot — the local
    /// half of the batch pattern: accumulate here (no atomics, no
    /// sharing), then [`LogHistogram::absorb`] the result.
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

    #[test]
    fn snapshot_aggregates_counts_and_sum() {
        let h = LogHistogram::new();
        for v in 1..=100u64 {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 5050);
        assert_eq!(s.max, 100);
    }

    #[test]
    fn quantiles_walk_the_buckets() {
        let h = LogHistogram::new();
        for _ in 0..90 {
            h.observe(8);
        }
        for _ in 0..10 {
            h.observe(100_000);
        }
        let s = h.snapshot();
        assert!(s.quantile(0.5) < 16, "median {}", s.quantile(0.5));
        assert!(s.quantile(0.99) >= 65536, "p99 {}", s.quantile(0.99));
        assert_eq!(s.quantile(1.0), 100_000);
    }

    #[test]
    fn local_record_then_absorb_matches_direct_observe() {
        let direct = LogHistogram::new();
        let batched = LogHistogram::new();
        let mut local = HistogramSnapshot::empty();
        for v in [0u64, 1, 5, 5, 300, 1 << 40] {
            direct.observe(v);
            local.record(v);
        }
        assert_eq!(local, direct.snapshot(), "local recording must agree");
        batched.absorb(&local);
        assert_eq!(batched.snapshot(), direct.snapshot());
        // Absorbing an empty snapshot is a no-op.
        batched.absorb(&HistogramSnapshot::empty());
        assert_eq!(batched.snapshot(), direct.snapshot());
    }

    #[test]
    fn concurrent_observations_all_land() {
        let h = LogHistogram::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for v in 0..500u64 {
                        h.observe(v);
                    }
                });
            }
        });
        let s = h.snapshot();
        assert_eq!(s.count, 4000);
        assert_eq!(s.max, 499);
    }
}
