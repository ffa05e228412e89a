//! Epoch timeline samples.
//!
//! The byte clock divides a run into epochs; the predictor, the
//! adaptive allocator, and the replay harness all change behaviour at
//! epoch boundaries. A single end-state snapshot cannot show *when*
//! coverage collapsed or fragmentation spiked, so a producer pushes one
//! [`EpochSample`] per tick onto a registry timeline
//! ([`Registry::push`](crate::Registry::push)), a bounded ring: old
//! epochs fall off the front, the recording cost stays bounded, and
//! export is a plain ordered dump. Ticks are tens of kilobytes of
//! allocation apart, never on the per-allocation fast path.

/// Capacity of every timeline ring: generous for real runs (a 64 KiB
/// epoch ring of 1024 covers a 64 MiB allocation window) while keeping
/// the worst-case export small.
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
