//! Byte-weighted lifetime distributions (the paper's Table 3).

use lifepred_quantile::P2Histogram;
use lifepred_trace::Trace;

/// Granularity of byte-weighted sampling into the P² histogram: one
/// observation per this many bytes of object size.
const WEIGHT_GRANULE: u64 = 64;

/// Maximum P² observations charged to a single object, so huge objects
/// cannot stall profiling.
const MAX_OBS_PER_OBJECT: u64 = 1024;

/// A byte-weighted distribution of object lifetimes.
///
/// Table 3 reads "each column gives the lifetime for which that
/// percentage of *bytes* is alive", i.e. quantiles weighted by object
/// size. Two estimates are kept:
///
/// * a P² quantile histogram fed one observation per 64 bytes of
///   object size — the constant-space estimate the paper used (and
///   whose approximation error the paper remarks on for GHOST);
/// * the exact weighted quantiles, used to quantify that error.
///
/// # Examples
///
/// ```
/// use lifepred_core::LifetimeDistribution;
///
/// let mut d = LifetimeDistribution::new();
/// for _ in 0..100 {
///     d.observe(48, 16); // lifetime 48 bytes, size 16
/// }
/// d.observe(1_000_000, 16); // one long-lived object
/// assert_eq!(d.quantile_exact(0.5), 48);
/// ```
#[derive(Debug, Clone)]
pub struct LifetimeDistribution {
    p2: P2Histogram,
    pairs: Vec<(u64, u64)>,
    total_bytes: u64,
}

impl Default for LifetimeDistribution {
    fn default() -> Self {
        LifetimeDistribution::new()
    }
}

impl LifetimeDistribution {
    /// Creates an empty distribution with quartile markers.
    pub fn new() -> Self {
        LifetimeDistribution {
            p2: P2Histogram::quartiles(),
            pairs: Vec::new(),
            total_bytes: 0,
        }
    }

    /// The distribution of `trace`'s objects, observed in record order
    /// (P² estimates depend on the order). Table 3's printers build it;
    /// training never reads it.
    pub fn from_trace(trace: &Trace) -> Self {
        let mut d = LifetimeDistribution::new();
        for record in trace.records() {
            d.observe(record.lifetime(trace.end_clock()), record.size);
        }
        d
    }

    /// Records an object of `size` bytes that lived `lifetime` bytes.
    pub fn observe(&mut self, lifetime: u64, size: u32) {
        let weight = (u64::from(size) / WEIGHT_GRANULE).clamp(1, MAX_OBS_PER_OBJECT);
        for _ in 0..weight {
            self.p2.observe(lifetime as f64);
        }
        self.pairs.push((lifetime, u64::from(size)));
        self.total_bytes += u64::from(size);
    }

    /// Number of objects observed.
    pub fn objects(&self) -> usize {
        self.pairs.len()
    }

    /// Total bytes observed.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// The P² (approximate) byte-weighted quantile, as the paper's
    /// Table 3 reports.
    pub fn quantile_p2(&self, p: f64) -> u64 {
        self.p2.quantile(p).round().max(0.0) as u64
    }

    /// The exact byte-weighted quantile: the smallest lifetime `L`
    /// such that at least `p` of all bytes belong to objects with
    /// lifetime ≤ `L`. Returns 0 on an empty distribution.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn quantile_exact(&self, p: f64) -> u64 {
        self.quantiles_exact([p])[0]
    }

    /// [`quantile_exact`](Self::quantile_exact) of each of `ps`, from
    /// one sort of the observations.
    fn quantiles_exact<const N: usize>(&self, ps: [f64; N]) -> [u64; N] {
        // (lifetime, bytes of this and every shorter-lived object)
        let mut cumulative = self.pairs.clone();
        cumulative.sort_unstable_by_key(|&(lifetime, _)| lifetime);
        let mut bytes = 0u64;
        for pair in &mut cumulative {
            bytes += pair.1;
            pair.1 = bytes;
        }
        ps.map(|p| {
            assert!(
                (0.0..=1.0).contains(&p),
                "quantile must be in [0, 1], got {p}"
            );
            let target = (p * self.total_bytes as f64).ceil() as u64;
            let at = cumulative.partition_point(|&(_, below)| below < target);
            let pair = cumulative.get(at).or(cumulative.last());
            pair.map_or(0, |&(lifetime, _)| lifetime)
        })
    }

    /// Convenience: the five quartile values `(min, 25%, 50%, 75%, max)`
    /// from the P² histogram — one row of Table 3.
    pub fn quartiles_p2(&self) -> [u64; 5] {
        [
            self.quantile_p2(0.0),
            self.quantile_p2(0.25),
            self.quantile_p2(0.5),
            self.quantile_p2(0.75),
            self.quantile_p2(1.0),
        ]
    }

    /// Convenience: the exact quartiles `(min, 25%, 50%, 75%, max)`.
    pub fn quartiles_exact(&self) -> [u64; 5] {
        self.quantiles_exact([0.0, 0.25, 0.5, 0.75, 1.0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_quantiles_are_byte_weighted() {
        let mut d = LifetimeDistribution::new();
        // 100 bytes of lifetime-10 objects, 900 bytes of lifetime-1000.
        for _ in 0..10 {
            d.observe(10, 10);
        }
        d.observe(1000, 900);
        // Only 10% of bytes live ≤ 10; the median byte lives 1000.
        assert_eq!(d.quantile_exact(0.05), 10);
        assert_eq!(d.quantile_exact(0.5), 1000);
    }

    #[test]
    fn p2_tracks_exact_for_smooth_streams() {
        let mut d = LifetimeDistribution::new();
        for i in 0..5000u64 {
            d.observe(i % 1000, 64);
        }
        let exact = d.quantile_exact(0.5);
        let approx = d.quantile_p2(0.5);
        assert!(
            (approx as i64 - exact as i64).abs() < 100,
            "p2 {approx} vs exact {exact}"
        );
    }

    #[test]
    fn empty_distribution() {
        let d = LifetimeDistribution::new();
        assert_eq!(d.quantile_exact(0.5), 0);
        assert_eq!(d.objects(), 0);
        assert_eq!(d.total_bytes(), 0);
    }

    #[test]
    fn quartile_arrays_are_monotone() {
        let mut d = LifetimeDistribution::new();
        for i in 0..3000u64 {
            d.observe((i * 7) % 10_000, ((i % 100) + 1) as u32);
        }
        for qs in [d.quartiles_p2(), d.quartiles_exact()] {
            for w in qs.windows(2) {
                assert!(w[0] <= w[1], "{qs:?}");
            }
        }
    }

    #[test]
    fn min_max_exact_in_p2() {
        let mut d = LifetimeDistribution::new();
        d.observe(5, 8);
        d.observe(77, 8);
        d.observe(12, 8);
        assert_eq!(d.quantile_p2(0.0), 5);
        assert_eq!(d.quantile_p2(1.0), 77);
    }
}
