//! Feature-gated wall-clock timing for latency histograms.
//!
//! The default build compiles [`Timer`] down to a zero-sized no-op:
//! `Timer::start()` returns a unit-like value and
//! [`Timer::observe_ns`] discards it, so an allocator hot path can be
//! written with timing *in place* and pay nothing unless the `timing`
//! feature is enabled. The CLI turns the feature on (a `simulate` run
//! wants the latency histogram); the bench and allocator builds leave
//! it off and pay no clock read per event.
//!
//! Feature unification is per build graph: enabling `timing` for the
//! CLI binary does not switch it on for an independently built bench.

#[cfg(feature = "timing")]
use std::time::Instant;

use crate::hist::LogHistogram;

/// Whether this build measures time. Mirrors the `timing` feature so
/// consumers can annotate output ("latency histogram disabled in this
/// build") instead of printing an all-zero histogram unexplained.
pub const TIMING_ENABLED: bool = cfg!(feature = "timing");

/// A started (or, without the `timing` feature, vacuous) stopwatch.
///
/// # Examples
///
/// ```
/// use lifepred_obs::{LogHistogram, Timer};
///
/// let latency = LogHistogram::new();
/// let t = Timer::start();
/// // ... the operation being measured ...
/// t.observe_ns(&latency);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Timer {
    #[cfg(feature = "timing")]
    start: Instant,
}

impl Timer {
    /// Starts the stopwatch (no-op without the `timing` feature).
    #[inline]
    #[must_use]
    pub fn start() -> Timer {
        Timer {
            #[cfg(feature = "timing")]
            start: Instant::now(),
        }
    }

    /// Elapsed nanoseconds since [`Timer::start`], saturating at
    /// `u64::MAX`. Always 0 without the `timing` feature; gate callers
    /// on [`TIMING_ENABLED`] so a disabled build records nothing
    /// rather than a histogram full of zeros.
    #[inline]
    #[must_use]
    pub fn elapsed_ns(&self) -> u64 {
        #[cfg(feature = "timing")]
        {
            u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
        }
        #[cfg(not(feature = "timing"))]
        {
            0
        }
    }

    /// Records the elapsed nanoseconds into `hist` (no-op without the
    /// `timing` feature — the histogram stays empty).
    #[inline]
    pub fn observe_ns(self, hist: &LogHistogram) {
        if TIMING_ENABLED {
            hist.observe(self.elapsed_ns());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_matches_feature() {
        let hist = LogHistogram::new();
        let t = Timer::start();
        t.observe_ns(&hist);
        let snap = hist.snapshot();
        if TIMING_ENABLED {
            assert_eq!(snap.count, 1);
        } else {
            assert!(snap.is_empty());
            // The disabled timer must stay zero-sized: that is the
            // "zero cost by default" contract.
            assert_eq!(std::mem::size_of::<Timer>(), 0);
        }
    }
}
