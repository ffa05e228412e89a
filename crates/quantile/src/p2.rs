//! The classic five-marker P² estimator for a single quantile.

use crate::P2Histogram;

/// Estimates a single quantile of a stream using the P² algorithm.
///
/// The estimator keeps five *markers*: the minimum, the maximum, the
/// target quantile and two intermediate quantiles. Marker heights are
/// adjusted with a piecewise-parabolic (hence "P²") interpolation as
/// observations arrive, so the estimate uses O(1) space regardless of
/// stream length. The update is [`P2Histogram`]'s: only the desired
/// marker positions differ, starting at Jain & Chlamtac's
/// `1, 1+2p, 1+4p, 3+2p, 5` and stepping by `0, p/2, p, (1+p)/2, 1`,
/// so `P2Quantile::new(0.5)` is exactly [`P2Histogram::quartiles`].
///
/// # Examples
///
/// ```
/// use lifepred_quantile::P2Quantile;
///
/// let mut q = P2Quantile::new(0.5);
/// for x in 1..=101 {
///     q.observe(x as f64);
/// }
/// assert!((q.estimate() - 51.0).abs() < 2.0);
/// ```
#[derive(Debug, Clone)]
pub struct P2Quantile {
    p: f64,
    markers: P2Histogram<5>,
    /// Desired position increments.
    dn: [f64; 5],
}

impl P2Quantile {
    /// Creates an estimator for quantile `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `(0, 1)`.
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p < 1.0, "quantile must be in (0, 1), got {p}");
        P2Quantile {
            p,
            markers: P2Histogram::starting_at([
                1.0,
                1.0 + 2.0 * p,
                1.0 + 4.0 * p,
                3.0 + 2.0 * p,
                5.0,
            ]),
            dn: [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0],
        }
    }

    /// Number of observations seen so far.
    pub fn count(&self) -> usize {
        self.markers.count()
    }

    /// Feeds one observation into the estimator.
    pub fn observe(&mut self, x: f64) {
        self.markers.observe_stepping(x, |i| self.dn[i]);
    }

    /// Current estimate of the tracked quantile.
    ///
    /// With fewer than five observations the estimate is read from the
    /// sorted prefix; with zero observations it is `0.0`.
    pub fn estimate(&self) -> f64 {
        if self.count() < 5 {
            return self.markers.quantile(self.p);
        }
        self.markers.markers()[2]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_converges() {
        // The worked example from Jain & Chlamtac (CACM 1985), p = 0.5.
        let data = [
            0.02, 0.15, 0.74, 3.39, 0.83, 22.37, 10.15, 15.43, 38.62, 15.92, 34.60, 10.28, 1.47,
            0.40, 0.05, 11.39, 0.27, 0.42, 0.09, 11.37,
        ];
        let mut q = P2Quantile::new(0.5);
        for x in data {
            q.observe(x);
        }
        // Published estimate after 20 observations is 4.44.
        assert!((q.estimate() - 4.44).abs() < 0.01, "got {}", q.estimate());
    }

    #[test]
    fn uniform_median() {
        let mut q = P2Quantile::new(0.5);
        for i in 0..10_000 {
            q.observe((i % 1000) as f64);
        }
        assert!((q.estimate() - 500.0).abs() < 25.0);
    }

    #[test]
    fn few_observations_fall_back_to_sorted_prefix() {
        let mut q = P2Quantile::new(0.5);
        q.observe(10.0);
        q.observe(2.0);
        q.observe(7.0);
        assert_eq!(q.estimate(), 7.0);
        assert_eq!(q.count(), 3);
    }

    #[test]
    fn empty_estimator() {
        let q = P2Quantile::new(0.25);
        assert_eq!(q.estimate(), 0.0);
        assert_eq!(q.count(), 0);
    }

    #[test]
    #[should_panic(expected = "quantile must be in (0, 1)")]
    fn rejects_invalid_p() {
        let _ = P2Quantile::new(1.5);
    }

    #[test]
    fn constant_stream() {
        let mut q = P2Quantile::new(0.75);
        for _ in 0..100 {
            q.observe(42.0);
        }
        assert_eq!(q.estimate(), 42.0);
    }

    /// The estimates of the pinned stream: `k`, then the `to_bits()` of
    /// the 0.75 and the 0.95 estimate after observation `k`.
    const PINNED: &str = include_str!("../tests/golden/p2_bits.txt");

    /// A fixed heavy-tailed stream, `1 / (u + 0.001)` for `u` uniform in
    /// `[0, 1)`: plain IEEE arithmetic, so its bits are the same on
    /// every target.
    fn pinned_stream() -> impl Iterator<Item = f64> {
        let mut s: u64 = 0x9E37_79B9_7F4A_7C15;
        (0..100_000).map(move |_| {
            s = s
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let u = (s >> 11) as f64 / (1u64 << 53) as f64;
            1.0 / (u + 1e-3)
        })
    }

    /// The estimates are bit-for-bit those of the standalone five-marker
    /// estimator this type replaced, after the first ten observations
    /// and every thousandth.
    #[test]
    fn estimates_are_pinned_bit_for_bit() {
        let mut pinned = PINNED.lines().filter(|l| !l.starts_with('#'));
        let (mut q75, mut q95) = (P2Quantile::new(0.75), P2Quantile::new(0.95));
        for (k, x) in (1..).zip(pinned_stream()) {
            q75.observe(x);
            q95.observe(x);
            if k <= 10 || k % 1000 == 0 {
                let got = format!(
                    "{k} {:016x} {:016x}",
                    q75.estimate().to_bits(),
                    q95.estimate().to_bits()
                );
                assert_eq!(Some(got.as_str()), pinned.next(), "after {k} observations");
            }
        }
        assert_eq!(pinned.next(), None, "every pinned line was checked");
    }

    #[test]
    fn skewed_distribution() {
        // Mirror allocation lifetimes: mostly tiny, a few huge.
        let mut q = P2Quantile::new(0.5);
        for i in 0..1000 {
            let x = if i % 100 == 0 { 1_000_000.0 } else { 16.0 };
            q.observe(x);
        }
        assert!(
            q.estimate() < 1000.0,
            "median should stay small: {}",
            q.estimate()
        );
    }
}
