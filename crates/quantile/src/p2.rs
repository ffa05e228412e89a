//! The classic five-marker P² estimator for a single quantile.

/// Estimates a single quantile of a stream using the P² algorithm.
///
/// The estimator keeps five *markers*: the minimum, the maximum, the
/// target quantile and two intermediate quantiles. Marker heights are
/// adjusted with a piecewise-parabolic (hence "P²") interpolation as
/// observations arrive, so the estimate uses O(1) space regardless of
/// stream length.
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
    /// Marker heights.
    q: [f64; 5],
    /// Marker positions (1-based observation counts).
    n: [f64; 5],
    /// Desired marker positions.
    np: [f64; 5],
    /// Desired position increments.
    dn: [f64; 5],
    count: usize,
    /// First five observations, collected before the markers start.
    init: [f64; 5],
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
            q: [0.0; 5],
            n: [1.0, 2.0, 3.0, 4.0, 5.0],
            np: [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0],
            dn: [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0],
            count: 0,
            init: [0.0; 5],
        }
    }

    /// Number of observations seen so far.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Feeds one observation into the estimator.
    pub fn observe(&mut self, x: f64) {
        if self.count < 5 {
            self.init[self.count] = x;
            self.count += 1;
            if self.count == 5 {
                self.init
                    .sort_by(|a, b| a.partial_cmp(b).expect("NaN observation"));
                self.q = self.init;
            }
            return;
        }
        self.count += 1;

        // Find the cell containing x and clamp extremes.
        let k = if x < self.q[0] {
            self.q[0] = x;
            0
        } else if x >= self.q[4] {
            self.q[4] = x;
            3
        } else {
            // q[k] <= x < q[k + 1]
            let mut k = 0;
            for i in 0..4 {
                if x >= self.q[i] && x < self.q[i + 1] {
                    k = i;
                    break;
                }
            }
            k
        };

        for n in self.n.iter_mut().skip(k + 1) {
            *n += 1.0;
        }
        for (np, dn) in self.np.iter_mut().zip(self.dn) {
            *np += dn;
        }

        // Adjust interior markers if needed.
        for i in 1..4 {
            let d = self.np[i] - self.n[i];
            let right_gap = self.n[i + 1] - self.n[i];
            let left_gap = self.n[i - 1] - self.n[i];
            if (d >= 1.0 && right_gap > 1.0) || (d <= -1.0 && left_gap < -1.0) {
                let d = d.signum();
                let qp = parabolic(d, &self.q, &self.n, i);
                self.q[i] = if self.q[i - 1] < qp && qp < self.q[i + 1] {
                    qp
                } else {
                    linear(d, &self.q, &self.n, i)
                };
                self.n[i] += d;
            }
        }
    }

    /// Current estimate of the tracked quantile.
    ///
    /// With fewer than five observations the estimate is read from the
    /// sorted prefix; with zero observations it is `0.0`.
    pub fn estimate(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        if self.count < 5 {
            let mut v = self.init[..self.count].to_vec();
            v.sort_by(|a, b| a.partial_cmp(b).expect("NaN observation"));
            let idx = ((self.count as f64 - 1.0) * self.p).round() as usize;
            return v[idx.min(self.count - 1)];
        }
        self.q[2]
    }
}

/// Piecewise-parabolic marker height prediction (formula from the paper).
fn parabolic(d: f64, q: &[f64; 5], n: &[f64; 5], i: usize) -> f64 {
    q[i] + d / (n[i + 1] - n[i - 1])
        * ((n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1]))
}

/// Linear fallback when the parabolic prediction is out of order.
fn linear(d: f64, q: &[f64; 5], n: &[f64; 5], i: usize) -> f64 {
    let j = if d > 0.0 { i + 1 } else { i - 1 };
    q[i] + d * (q[j] - q[i]) / (n[j] - n[i])
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
