//! Epoch timeline: a bounded ring of per-epoch snapshots.
//!
//! The byte clock divides a run into epochs; the predictor, the
//! adaptive allocator, and the replay harness all change behaviour at
//! epoch boundaries. A single end-state snapshot cannot show *when*
//! coverage collapsed or fragmentation spiked, so the timeline records
//! one [`EpochSample`] per tick into a fixed-capacity ring — old
//! epochs fall off the front, the recording cost stays bounded, and
//! export is a plain ordered dump.
//!
//! Pushes happen at epoch boundaries (tens of kilobytes of allocation
//! apart), never on the per-allocation fast path, so a mutex-guarded
//! ring is the right tool: no atomics to audit, no torn samples.

use std::collections::VecDeque;
use std::sync::Mutex;

/// Default ring capacity: generous for real runs (a 64 KiB epoch ring
/// of 1024 covers a 64 MiB allocation window) while keeping the
/// worst-case export small.
pub const DEFAULT_TIMELINE_CAPACITY: usize = 1024;

/// One epoch boundary's worth of predictor + arena state.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EpochSample {
    /// Epoch ordinal (0-based, monotonically increasing).
    pub epoch: u64,
    /// Byte-clock reading at the tick.
    pub clock_bytes: u64,
    /// Predictor snapshot generation in effect after the tick.
    pub generation: u64,
    /// Sites currently predicted short-lived.
    pub short_sites: u64,
    /// Total sites the predictor has ever scored.
    pub sites: u64,
    /// Live bytes at the tick (allocator- or simulation-side).
    pub live_bytes: u64,
    /// High-water heap mark so far.
    pub max_heap_bytes: u64,
    /// Arena utilization in percent (0 when no arena is active).
    pub utilization_pct: f64,
    /// Arena fragmentation in percent (0 when no arena is active).
    pub fragmentation_pct: f64,
    /// Cumulative mispredicted-long objects (predicted short, lived
    /// past the threshold) observed up to this tick.
    pub mispredictions: u64,
    /// Cumulative site demotions (short → long) up to this tick.
    pub demotions: u64,
}

/// A bounded, thread-safe ring of [`EpochSample`]s.
///
/// # Examples
///
/// ```
/// use lifepred_obs::{EpochSample, EpochTimeline};
///
/// let t = EpochTimeline::with_capacity(2);
/// for epoch in 0..3 {
///     t.push(EpochSample { epoch, ..EpochSample::default() });
/// }
/// let samples = t.samples();
/// assert_eq!(samples.len(), 2);
/// assert_eq!(samples[0].epoch, 1); // epoch 0 fell off the front
/// assert_eq!(t.dropped(), 1);
/// ```
#[derive(Debug)]
pub struct EpochTimeline {
    inner: Mutex<Ring>,
    capacity: usize,
}

#[derive(Debug)]
struct Ring {
    samples: VecDeque<EpochSample>,
    dropped: u64,
}

impl EpochTimeline {
    /// Creates a timeline with [`DEFAULT_TIMELINE_CAPACITY`].
    pub(crate) fn new() -> EpochTimeline {
        EpochTimeline::with_capacity(DEFAULT_TIMELINE_CAPACITY)
    }

    /// Creates a timeline holding at most `capacity` samples
    /// (minimum 1).
    pub fn with_capacity(capacity: usize) -> EpochTimeline {
        let capacity = capacity.max(1);
        EpochTimeline {
            inner: Mutex::new(Ring {
                samples: VecDeque::with_capacity(capacity),
                dropped: 0,
            }),
            capacity,
        }
    }

    /// Appends a sample, evicting the oldest when full.
    pub fn push(&self, sample: EpochSample) {
        let mut ring = self.inner.lock().expect("timeline lock poisoned");
        if ring.samples.len() == self.capacity {
            ring.samples.pop_front();
            ring.dropped += 1;
        }
        ring.samples.push_back(sample);
    }

    /// The retained samples, oldest first.
    pub fn samples(&self) -> Vec<EpochSample> {
        let ring = self.inner.lock().expect("timeline lock poisoned");
        ring.samples.iter().copied().collect()
    }

    /// Samples evicted from the front since creation.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("timeline lock poisoned").dropped
    }
}

impl Default for EpochTimeline {
    fn default() -> Self {
        EpochTimeline::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(epoch: u64) -> EpochSample {
        EpochSample {
            epoch,
            clock_bytes: epoch * 1000,
            ..EpochSample::default()
        }
    }

    #[test]
    fn retains_in_order() {
        let t = EpochTimeline::with_capacity(8);
        for e in 0..5 {
            t.push(sample(e));
        }
        let got: Vec<u64> = t.samples().iter().map(|s| s.epoch).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn evicts_oldest_when_full() {
        let t = EpochTimeline::with_capacity(3);
        for e in 0..10 {
            t.push(sample(e));
        }
        let got: Vec<u64> = t.samples().iter().map(|s| s.epoch).collect();
        assert_eq!(got, vec![7, 8, 9]);
        assert_eq!(t.dropped(), 7);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let t = EpochTimeline::with_capacity(0);
        t.push(sample(1));
        t.push(sample(2));
        let got: Vec<u64> = t.samples().iter().map(|s| s.epoch).collect();
        assert_eq!(got, vec![2]);
    }
}
