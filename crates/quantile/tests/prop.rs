//! Property-based tests comparing P² estimates against the exact oracle.

use lifepred_quantile::{ExactQuantiles, P2Histogram, P2Quantile};
use proptest::prelude::*;

proptest! {
    /// The single-quantile estimator stays within a loose relative band
    /// of the true quantile for well-behaved streams.
    #[test]
    fn p2_tracks_uniform_median(seed in 0u64..1000) {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut q = P2Quantile::new(0.5);
        let mut exact = ExactQuantiles::new();
        for _ in 0..2000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let x = ((state >> 33) % 10_000) as f64;
            q.observe(x);
            exact.observe(x);
        }
        let truth = exact.quantile(0.5);
        prop_assert!((q.estimate() - truth).abs() < 1000.0,
            "estimate {} vs truth {}", q.estimate(), truth);
    }

    /// The median estimator and the quartile histogram are one P²
    /// update: they agree bit for bit after every observation.
    #[test]
    fn median_estimator_is_the_quartile_histogram(xs in proptest::collection::vec(0.0f64..1e9, 1..500)) {
        let (mut q, mut h) = (P2Quantile::new(0.5), P2Histogram::quartiles());
        for &x in &xs {
            q.observe(x);
            h.observe(x);
            prop_assert_eq!(q.estimate().to_bits(), h.quantile(0.5).to_bits());
        }
    }

    /// Histogram extremes are always exact, and markers are sorted.
    #[test]
    fn histogram_invariants(xs in proptest::collection::vec(0.0f64..1e9, 1..500)) {
        let mut h = P2Histogram::<5>::new();
        for &x in &xs {
            h.observe(x);
        }
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(h.min(), min);
        prop_assert_eq!(h.max(), max);
        if xs.len() >= 5 {
            let m = h.markers();
            for w in m.windows(2) {
                prop_assert!(w[0] <= w[1]);
            }
        }
    }

    /// Quantile reads are monotone in p.
    #[test]
    fn quantile_monotone_in_p(xs in proptest::collection::vec(0.0f64..1e6, 10..300)) {
        let mut h = P2Histogram::<9>::new();
        for &x in &xs {
            h.observe(x);
        }
        let mut prev = h.quantile(0.0);
        for i in 1..=20 {
            let cur = h.quantile(i as f64 / 20.0);
            prop_assert!(cur >= prev - 1e-9, "non-monotone at {i}: {cur} < {prev}");
            prev = cur;
        }
    }

    /// Estimates always lie within [min, max] of the stream.
    #[test]
    fn estimate_within_range(xs in proptest::collection::vec(-1e6f64..1e6, 5..400), p in 0.01f64..0.99) {
        let mut q = P2Quantile::new(p);
        for &x in &xs {
            q.observe(x);
        }
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(q.estimate() >= min - 1e-9 && q.estimate() <= max + 1e-9);
    }
}
