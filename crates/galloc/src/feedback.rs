//! Sampled lifetime feedback for the online predictor.
//!
//! Tracking every object's birth clock would need a header per block
//! or a big side table on the hot path; instead one in `sample_every`
//! small allocations is recorded in a fixed direct-mapped table keyed
//! by pointer. The free path pays exactly one atomic load to probe
//! the table; only a hit (one in `sample_every` frees, statistically)
//! touches the pending-feedback mutex. Pending per-site aggregates
//! are drained into the learner at epoch ticks.

use lifepred_adaptive::EpochAgg;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Sample-table capacity (power of two). At the default 1-in-64
/// sampling a table this size tracks the live sampled set of a few
/// hundred thousand outstanding small objects before drops dominate.
const TABLE_LEN: usize = 4096;

/// Slot is being claimed; fields are not yet valid.
const CLAIMING: usize = 1;

const FLAG_PREDICTED: u8 = 1;
const FLAG_NOTED: u8 = 2;

#[derive(Debug)]
struct SampleSlot {
    /// 0 = empty, 1 = claim in progress, else the sampled pointer.
    ptr: AtomicUsize,
    fp: AtomicU64,
    birth: AtomicU64,
    size: AtomicU32,
    flags: AtomicU8,
}

/// Feedback accumulated away from the learner, drained at epoch
/// ticks.
#[derive(Debug, Default)]
struct Pending {
    aggs: HashMap<u64, EpochAgg>,
    /// Sites of sampled predicted-short objects observed living past
    /// the threshold; reported via `OnlineLearner::note_pinned` at the
    /// next tick (never through `EpochAgg::long_frees`, and never by
    /// taking the learner mutex on the free path — a free during an
    /// epoch drain would self-deadlock).
    mispredicts: Vec<(u64, u32)>,
}

/// The sample table plus the pending per-site aggregates.
#[derive(Debug)]
pub struct Feedback {
    slots: Box<[SampleSlot]>,
    pending: Mutex<Pending>,
}

/// What a free-path probe found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// The pointer was not sampled.
    Miss,
    /// A sampled object was freed.
    Freed {
        /// Whether it was predicted short-lived and outlived the
        /// threshold (a misprediction).
        mispredicted: bool,
    },
}

#[inline]
fn slot_index(ptr: usize) -> usize {
    // Fibonacci hashing over the block address; low bits of small
    // blocks repeat per class so mix the whole word.
    (ptr.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 48) & (TABLE_LEN - 1)
}

impl Feedback {
    /// An empty table.
    pub fn new() -> Feedback {
        Feedback {
            slots: (0..TABLE_LEN)
                .map(|_| SampleSlot {
                    ptr: AtomicUsize::new(0),
                    fp: AtomicU64::new(0),
                    birth: AtomicU64::new(0),
                    size: AtomicU32::new(0),
                    flags: AtomicU8::new(0),
                })
                .collect(),
            pending: Mutex::new(Pending::default()),
        }
    }

    /// Tries to sample an allocation. Returns `false` when the slot
    /// is occupied (the opportunity is dropped, not retried — the
    /// probe on free must stay a single slot check).
    #[expect(
        clippy::indexing_slicing,
        reason = "`slots[slot_index(ptr)]`, the slot on_free probes: slot_index masks with \
                  TABLE_LEN - 1 and the table holds TABLE_LEN slots."
    )]
    pub fn try_sample(
        &self,
        ptr: *mut u8,
        fp: u64,
        birth: u64,
        size: u32,
        predicted: bool,
    ) -> bool {
        let slot = &self.slots[slot_index(ptr as usize)];
        if slot
            .ptr
            .compare_exchange(0, CLAIMING, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return false;
        }
        slot.fp.store(fp, Ordering::Relaxed);
        slot.birth.store(birth, Ordering::Relaxed);
        slot.size.store(size, Ordering::Relaxed);
        slot.flags.store(
            if predicted { FLAG_PREDICTED } else { 0 },
            Ordering::Relaxed,
        );
        // Publish: a probe that sees this pointer also sees the fields.
        slot.ptr.store(ptr as usize, Ordering::Release);
        let mut pending = self.pending.lock().unwrap_or_else(PoisonError::into_inner);
        pending
            .aggs
            .entry(fp)
            .or_default()
            .on_alloc(size as u64, predicted);
        true
    }

    /// Probes the table for a freed pointer and, on a hit, records
    /// the observed lifetime into the pending aggregates.
    #[expect(
        clippy::indexing_slicing,
        reason = "`slots[slot_index(ptr)]`: slot_index masks the pointer hash with (slots.len() \
                  - 1) and the table is built with a power-of-two length, so the index is always \
                  in range. Kept as a checked index so a corrupted mask aborts rather than \
                  probing wild memory."
    )]
    pub fn on_free(&self, ptr: *mut u8, clock: u64, threshold: u64) -> Probe {
        let slot = &self.slots[slot_index(ptr as usize)];
        if slot.ptr.load(Ordering::Acquire) != ptr as usize {
            return Probe::Miss;
        }
        // Read fields while the slot still holds our pointer: no one
        // can rewrite them until the slot is released below.
        let fp = slot.fp.load(Ordering::Relaxed);
        let birth = slot.birth.load(Ordering::Relaxed);
        let size = slot.size.load(Ordering::Relaxed);
        let flags = slot.flags.load(Ordering::Relaxed);
        if slot
            .ptr
            .compare_exchange(ptr as usize, 0, Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            // A racing free of the same pointer claimed the slot (the
            // program double-freed; the allocator-level accounting
            // catches that elsewhere).
            return Probe::Miss;
        }
        let lifetime = clock.saturating_sub(birth);
        let long = lifetime >= threshold;
        let predicted = flags & FLAG_PREDICTED != 0;
        let noted = flags & FLAG_NOTED != 0;
        let mispredicted = predicted && long && !noted;
        let mut pending = self.pending.lock().unwrap_or_else(PoisonError::into_inner);
        let agg = pending.aggs.entry(fp).or_default();
        // Mispredicted (or already-noted) long lifetimes must not go
        // through long_frees; note_pinned carries the demotion.
        agg.on_free(lifetime, long && !predicted && !noted);
        if mispredicted {
            pending.mispredicts.push((fp, size));
        }
        Probe::Freed { mispredicted }
    }

    /// Scans for sampled predicted-short objects still live past the
    /// threshold, marking each so it is reported only once. Returns
    /// their `(site, size)` pairs for `note_pinned`.
    pub fn aging_scan(&self, clock: u64, threshold: u64) -> Vec<(u64, u32)> {
        let mut pinned = Vec::new();
        for slot in self.slots.iter() {
            let ptr = slot.ptr.load(Ordering::Acquire);
            if ptr <= CLAIMING {
                continue;
            }
            let flags = slot.flags.load(Ordering::Relaxed);
            if flags & FLAG_PREDICTED == 0 || flags & FLAG_NOTED != 0 {
                continue;
            }
            let birth = slot.birth.load(Ordering::Relaxed);
            if clock.saturating_sub(birth) < threshold {
                continue;
            }
            // fetch_or claims the note; a racing free may still read
            // the un-noted flags and also report the site — a benign
            // double demotion signal on an already-wrong site.
            let prev = slot.flags.fetch_or(FLAG_NOTED, Ordering::AcqRel);
            if prev & FLAG_NOTED == 0 && slot.ptr.load(Ordering::Acquire) == ptr {
                pinned.push((
                    slot.fp.load(Ordering::Relaxed),
                    slot.size.load(Ordering::Relaxed),
                ));
            }
        }
        pinned
    }

    /// Takes everything accumulated since the last drain.
    pub fn drain(&self) -> (HashMap<u64, EpochAgg>, Vec<(u64, u32)>) {
        let mut pending = self.pending.lock().unwrap_or_else(PoisonError::into_inner);
        (
            std::mem::take(&mut pending.aggs),
            std::mem::take(&mut pending.mispredicts),
        )
    }
}

impl Default for Feedback {
    fn default() -> Feedback {
        Feedback::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_free_reports_lifetime() {
        let f = Feedback::new();
        let p = 0x10000 as *mut u8;
        assert!(f.try_sample(p, 42, 100, 64, false));
        assert_eq!(
            f.on_free(p, 150, 1000),
            Probe::Freed {
                mispredicted: false
            }
        );
        let (aggs, mis) = f.drain();
        assert!(mis.is_empty());
        let agg = &aggs[&42];
        assert_eq!(agg.allocs, 1);
        assert_eq!(agg.frees, 1);
        assert_eq!(agg.long_frees, 0);
        assert_eq!(agg.samples, vec![50]);
    }

    #[test]
    fn unsampled_free_is_a_miss() {
        let f = Feedback::new();
        assert_eq!(f.on_free(0x2000 as *mut u8, 10, 10), Probe::Miss);
    }

    #[test]
    fn colliding_sample_is_dropped() {
        let f = Feedback::new();
        let p = 0x30000 as *mut u8;
        assert!(f.try_sample(p, 1, 0, 8, false));
        // Same slot (same pointer re-allocated without the free being
        // observed, or a hash collision): dropped.
        assert!(!f.try_sample(p, 2, 5, 8, false));
    }

    #[test]
    fn mispredicted_long_free_goes_to_note_pinned_not_long_frees() {
        let f = Feedback::new();
        let p = 0x40000 as *mut u8;
        assert!(f.try_sample(p, 7, 0, 32, true));
        assert_eq!(
            f.on_free(p, 5000, 1000),
            Probe::Freed { mispredicted: true }
        );
        let (aggs, mis) = f.drain();
        assert_eq!(mis, vec![(7, 32)]);
        assert_eq!(aggs[&7].long_frees, 0, "demotion rides note_pinned");
        assert_eq!(aggs[&7].frees, 1);
    }

    #[test]
    fn unpredicted_long_free_counts_long() {
        let f = Feedback::new();
        let p = 0x50000 as *mut u8;
        assert!(f.try_sample(p, 9, 0, 16, false));
        f.on_free(p, 5000, 1000);
        let (aggs, mis) = f.drain();
        assert!(mis.is_empty());
        assert_eq!(aggs[&9].long_frees, 1);
    }

    #[test]
    fn aging_scan_notes_each_pinned_object_once() {
        let f = Feedback::new();
        let p = 0x60000 as *mut u8;
        let q = 0x61000 as *mut u8;
        assert!(f.try_sample(p, 11, 0, 64, true));
        assert!(f.try_sample(q, 12, 0, 64, false));
        // Not old enough yet.
        assert!(f.aging_scan(100, 1000).is_empty());
        // p is predicted and old: noted exactly once. q is unpredicted.
        assert_eq!(f.aging_scan(2000, 1000), vec![(11, 64)]);
        assert!(f.aging_scan(3000, 1000).is_empty());
        // Its eventual free is no longer a misprediction (already
        // noted) and must not count a long free either.
        assert_eq!(
            f.on_free(p, 4000, 1000),
            Probe::Freed {
                mispredicted: false
            }
        );
        let (aggs, mis) = f.drain();
        assert!(mis.is_empty());
        assert_eq!(aggs[&11].long_frees, 0);
    }

    #[test]
    fn slots_are_reusable_after_free() {
        let f = Feedback::new();
        let p = 0x70000 as *mut u8;
        assert!(f.try_sample(p, 1, 0, 8, false));
        f.on_free(p, 10, 100);
        assert!(f.try_sample(p, 1, 20, 8, false), "slot released on free");
    }
}
