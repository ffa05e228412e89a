//! The extended (histogram) form of the P² algorithm.

/// An equiprobable-cell quantile histogram maintained in constant space.
///
/// This is the "quantile histogram" of the paper's Table 3 (the paper
/// keeps one per allocation site; here `lifepred_core`'s
/// `LifetimeDistribution` keeps one per program, and nothing else
/// does): `MARKERS - 1` equiprobable cells are delimited by
/// `MARKERS` markers whose heights approximate the `i / (MARKERS - 1)`
/// quantiles of the observation stream. Any quantile can then be read
/// with [`P2Histogram::quantile`] by interpolating between markers. The
/// marker count is part of the type, so the whole state lives inline:
/// a histogram costs no heap allocation. The default, five
/// markers, is [`P2Histogram::quartiles`].
///
/// # Examples
///
/// ```
/// use lifepred_quantile::P2Histogram;
///
/// let mut h = P2Histogram::<9>::new(); // 8 cells
/// for i in 0..10_000 {
///     h.observe((i % 100) as f64);
/// }
/// assert!((h.quantile(0.25) - 25.0).abs() < 5.0);
/// assert_eq!(h.quantile(0.0), 0.0);   // exact minimum
/// assert_eq!(h.quantile(1.0), 99.0);  // exact maximum
/// ```
#[derive(Debug, Clone)]
pub struct P2Histogram<const MARKERS: usize = 5> {
    /// Marker heights (approximate quantile values).
    q: [f64; MARKERS],
    /// Actual marker positions (1-based ranks). Until the first
    /// `MARKERS` observations seed the markers, it buffers them instead.
    n: [f64; MARKERS],
    /// Desired marker positions.
    np: [f64; MARKERS],
    count: usize,
}

impl P2Histogram {
    /// A 4-cell histogram: exactly the quartile summaries of Table 3.
    pub fn quartiles() -> Self {
        P2Histogram::new()
    }
}

impl<const MARKERS: usize> Default for P2Histogram<MARKERS> {
    fn default() -> Self {
        P2Histogram::new()
    }
}

impl<const MARKERS: usize> P2Histogram<MARKERS> {
    /// Creates a histogram with `MARKERS - 1` equiprobable cells.
    ///
    /// # Panics
    ///
    /// Panics if `MARKERS < 3` (fewer than 2 cells).
    pub fn new() -> Self {
        let cells = MARKERS.saturating_sub(1);
        assert!(cells >= 2, "histogram needs at least 2 cells, got {cells}");
        P2Histogram::starting_at(Self::ranks())
    }

    /// Markers whose desired positions start at `np` instead of the
    /// equiprobable ranks: [`P2Quantile`](crate::P2Quantile)'s core.
    pub(crate) fn starting_at(np: [f64; MARKERS]) -> Self {
        P2Histogram {
            q: [0.0; MARKERS],
            n: Self::ranks(),
            np,
            count: 0,
        }
    }

    /// The 1-based ranks every marker position starts at.
    fn ranks() -> [f64; MARKERS] {
        std::array::from_fn(|i| (i + 1) as f64)
    }

    /// Number of observations seen so far.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Feeds one observation into the histogram.
    pub fn observe(&mut self, x: f64) {
        // Desired position of marker i after n observations is
        // 1 + i * (n - 1) / cells; increment is i / cells.
        let cells = (MARKERS - 1) as f64;
        self.observe_stepping(x, |i| i as f64 / cells);
    }

    /// The P² update: feeds `x` in, advancing marker `i`'s desired
    /// position by `dn(i)`, and moves each interior marker that has
    /// drifted a whole rank from where it should be.
    pub(crate) fn observe_stepping(&mut self, x: f64, dn: impl Fn(usize) -> f64) {
        if self.count < MARKERS {
            self.n[self.count] = x;
            self.count += 1;
            if self.count == MARKERS {
                self.n
                    .sort_by(|a, b| a.partial_cmp(b).expect("NaN observation"));
                self.q = self.n;
                self.n = Self::ranks();
            }
            return;
        }
        self.count += 1;

        // Locate the cell containing x, updating extremes.
        let last = MARKERS - 1;
        let k = if x < self.q[0] {
            self.q[0] = x;
            0
        } else if x >= self.q[last] {
            self.q[last] = x;
            last - 1
        } else {
            let mut k = 0;
            for i in 0..last {
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
        for (i, np) in self.np.iter_mut().enumerate() {
            *np += dn(i);
        }

        // Adjust interior markers.
        for i in 1..last {
            let d = self.np[i] - self.n[i];
            if (d >= 1.0 && self.n[i + 1] - self.n[i] > 1.0)
                || (d <= -1.0 && self.n[i - 1] - self.n[i] < -1.0)
            {
                let d = d.signum();
                let qp = self.parabolic(d, i);
                self.q[i] = if self.q[i - 1] < qp && qp < self.q[i + 1] {
                    qp
                } else {
                    self.linear(d, i)
                };
                self.n[i] += d;
            }
        }
    }

    fn parabolic(&self, d: f64, i: usize) -> f64 {
        let (q, n) = (&self.q, &self.n);
        q[i] + d / (n[i + 1] - n[i - 1])
            * ((n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1]))
    }

    fn linear(&self, d: f64, i: usize) -> f64 {
        let j = if d > 0.0 { i + 1 } else { i - 1 };
        self.q[i] + d * (self.q[j] - self.q[i]) / (self.n[j] - self.n[i])
    }

    /// Reads the estimated quantile `p` (in `[0, 1]`) from the markers.
    ///
    /// `quantile(0.0)` and `quantile(1.0)` are the exact minimum and
    /// maximum. Interior quantiles interpolate linearly between the two
    /// nearest markers.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&p),
            "quantile must be in [0, 1], got {p}"
        );
        if self.count == 0 {
            return 0.0;
        }
        if self.count < MARKERS {
            let mut v = self.n;
            let v = &mut v[..self.count];
            v.sort_by(|a, b| a.partial_cmp(b).expect("NaN observation"));
            let idx = ((v.len() as f64 - 1.0) * p).round() as usize;
            return v[idx.min(v.len() - 1)];
        }
        let last = MARKERS - 1;
        let pos = p * last as f64;
        let lo = pos.floor() as usize;
        if lo >= last {
            return self.q[last];
        }
        let frac = pos - lo as f64;
        self.q[lo] + frac * (self.q[lo + 1] - self.q[lo])
    }

    /// Exact minimum of the stream.
    pub fn min(&self) -> f64 {
        self.quantile(0.0)
    }

    /// Exact maximum of the stream.
    pub fn max(&self) -> f64 {
        self.quantile(1.0)
    }

    /// All marker heights, i.e. estimated quantiles `i / cells`.
    pub fn markers(&self) -> &[f64] {
        &self.q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The state is inline: no heap, and no slot beyond the markers.
    #[test]
    fn quartiles_fit_in_three_marker_arrays() {
        assert_eq!(size_of::<P2Histogram>(), 3 * 5 * 8 + 8);
    }

    #[test]
    fn quartiles_of_uniform() {
        let mut h = P2Histogram::quartiles();
        for i in 0..100_000 {
            h.observe((i % 1000) as f64);
        }
        assert!((h.quantile(0.25) - 250.0).abs() < 20.0);
        assert!((h.quantile(0.5) - 500.0).abs() < 20.0);
        assert!((h.quantile(0.75) - 750.0).abs() < 20.0);
    }

    #[test]
    fn extremes_are_exact() {
        let mut h = P2Histogram::<5>::new();
        for i in 0..1000 {
            h.observe(i as f64);
        }
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 999.0);
    }

    #[test]
    fn small_streams_use_exact_prefix() {
        let mut h = P2Histogram::<11>::new();
        for x in [5.0, 1.0, 3.0] {
            h.observe(x);
        }
        assert_eq!(h.quantile(0.0), 1.0);
        assert_eq!(h.quantile(1.0), 5.0);
        assert_eq!(h.quantile(0.5), 3.0);
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = P2Histogram::<5>::new();
        assert_eq!(h.quantile(0.5), 0.0);
    }

    #[test]
    fn marker_heights_monotone() {
        let mut h = P2Histogram::<9>::new();
        for i in 0..50_000 {
            // Lifetime-like skew.
            let x = if i % 50 == 0 {
                100_000.0
            } else {
                (i % 64) as f64
            };
            h.observe(x);
        }
        let m = h.markers();
        for w in m.windows(2) {
            assert!(w[0] <= w[1], "markers out of order: {m:?}");
        }
    }

    #[test]
    #[should_panic(expected = "at least 2 cells")]
    fn rejects_tiny_histogram() {
        let _ = P2Histogram::<2>::new();
    }
}
