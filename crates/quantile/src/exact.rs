//! A store-everything quantile oracle, used to validate P² estimates.

/// Exact quantiles computed by storing every observation.
///
/// This is the testing oracle for [`P2Quantile`](crate::P2Quantile) and
/// [`P2Histogram`](crate::P2Histogram), and is also used by the
/// experiment harness to report the approximation error that the paper
/// acknowledges (e.g. GHOST's 75% quantile).
///
/// # Examples
///
/// ```
/// use lifepred_quantile::ExactQuantiles;
///
/// let mut e = ExactQuantiles::new();
/// e.extend([3.0, 1.0, 2.0]);
/// assert_eq!(e.quantile(0.5), 2.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ExactQuantiles {
    data: Vec<f64>,
    sorted: bool,
}

impl ExactQuantiles {
    /// Creates an empty oracle.
    pub fn new() -> Self {
        ExactQuantiles::default()
    }

    /// Feeds one observation.
    pub fn observe(&mut self, x: f64) {
        self.data.push(x);
        self.sorted = false;
    }

    /// Exact quantile `p` in `[0, 1]` (nearest-rank with interpolation
    /// matching the convention used by [`crate::P2Histogram`]).
    ///
    /// Returns `0.0` on an empty stream.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn quantile(&mut self, p: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&p),
            "quantile must be in [0, 1], got {p}"
        );
        if self.data.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.data
                .sort_by(|a, b| a.partial_cmp(b).expect("NaN observation"));
            self.sorted = true;
        }
        let pos = p * (self.data.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let frac = pos - lo as f64;
        if lo + 1 >= self.data.len() {
            return self.data[self.data.len() - 1];
        }
        self.data[lo] + frac * (self.data[lo + 1] - self.data[lo])
    }
}

impl Extend<f64> for ExactQuantiles {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        self.data.extend(iter);
        self.sorted = false;
    }
}

impl FromIterator<f64> for ExactQuantiles {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut e = ExactQuantiles::new();
        e.extend(iter);
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_on_small_sets() {
        let mut e: ExactQuantiles = [10.0, 20.0, 30.0, 40.0, 50.0].into_iter().collect();
        assert_eq!(e.quantile(0.0), 10.0);
        assert_eq!(e.quantile(0.25), 20.0);
        assert_eq!(e.quantile(0.5), 30.0);
        assert_eq!(e.quantile(1.0), 50.0);
    }

    #[test]
    fn interpolates() {
        let mut e: ExactQuantiles = [0.0, 10.0].into_iter().collect();
        assert_eq!(e.quantile(0.5), 5.0);
    }

    #[test]
    fn empty_reads_zero() {
        let mut e = ExactQuantiles::new();
        assert_eq!(e.quantile(0.5), 0.0);
    }
}
