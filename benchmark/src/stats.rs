//! Order statistics for repeated timings.
//!
//! Timings on the shared 2-core host are summarised by their **lower
//! quartile**: neighbour contention only ever adds time, in phases that
//! last seconds, so the low end of a window is the steadiest part of it
//! (README, "Noise"). The estimator is the one Python's
//! `statistics.quantiles(values, n=4)` uses, so a reader can recompute
//! any printed number from the samples.

/// The three quartiles of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

/// Quartiles by the "exclusive" method: the i-th of n sorted values sits
/// at probability i/(n+1), interpolated linearly and clamped to the
/// sample's ends. One value is its own quartiles.
///
/// # Panics
///
/// Panics on an empty sample or a NaN.
pub fn quartiles(values: &[f64]) -> Quartiles {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    let n = v.len();
    let at = |k: usize| {
        // Position of the k-th quartile among 1-based ranks.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n.max(2) - 1);
        let frac = (pos - lo as f64).clamp(0.0, 1.0);
        let a = v[lo - 1];
        let b = v[lo.min(n - 1)];
        a + (b - a) * frac
    };
    Quartiles {
        q1: at(1),
        median: at(2),
        q3: at(3),
    }
}

/// Lower quartile of a sample.
pub fn q1(values: &[f64]) -> f64 {
    quartiles(values).q1
}

/// Median of a sample.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).median
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-12, "{a} != {b}");
    }

    #[test]
    fn matches_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v);
        close(q.q1, 2.75);
        close(q.median, 5.5);
        close(q.q3, 8.25);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = quartiles(&[3.0, 1.0, 2.0]);
        close(q.q1, 1.0);
        close(q.median, 2.0);
        close(q.q3, 3.0);
        // statistics.quantiles([0.9, 1.3, 1.0, 0.95, 2.0], n=4) == [0.925, 1.0, 1.65]
        let q = quartiles(&[0.9, 1.3, 1.0, 0.95, 2.0]);
        close(q.q1, 0.925);
        close(q.median, 1.0);
        close(q.q3, 1.65);
    }

    #[test]
    fn small_samples_clamp_to_their_ends() {
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: Python
        // extrapolates; a timing below the fastest repetition was never
        // observed, so this estimator clamps instead.
        let q = quartiles(&[2.0, 1.0]);
        close(q.q1, 1.0);
        close(q.median, 1.5);
        close(q.q3, 2.0);
        let q = quartiles(&[7.0]);
        close(q.q1, 7.0);
        close(q.median, 7.0);
        close(q.q3, 7.0);
    }

    #[test]
    fn lower_quartile_ignores_a_slow_phase() {
        let mut v = vec![1.0; 12];
        v.extend([1.4; 8]);
        close(q1(&v), 1.0);
        assert!(median(&v) <= 1.0 + 1e-12);
    }
}
