//! The predictors a replay can consult: none, a frozen per-object
//! bitmap from an offline-trained database, or the online learner. A
//! new predictor is one [`Predict`] impl here and one
//! [`ReplayPlan`](crate::ReplayPlan) variant naming it.

use crate::arena::ArenaAllocator;
use crate::replay::{pct, Corrupt};
use lifepred_adaptive::{EpochConfig, LearnerStats, OnlineLearner};
use lifepred_flight::catalog;
use lifepred_obs::EpochSample;
use std::collections::VecDeque;

/// Where the replay loop gets each allocation's lifetime prediction,
/// and what learns from the lifetimes the loop then observes. `H` is
/// the heap the predictor works with.
pub(crate) trait Predict<H> {
    /// The verdict for object `record`, about to be allocated with
    /// `size` bytes: is it short-lived?
    fn on_alloc(&mut self, record: usize, size: u32) -> Result<bool, Corrupt>;
    /// That allocation was placed, in the arena area or outside it.
    fn placed(&mut self, _size: u32, _in_arena: bool) {}
    /// Object `record` was freed; the slot table has already checked
    /// that it was live.
    fn on_free(&mut self, _record: usize, _was_in_arena: bool) {}
    /// A timeline sample, if an epoch boundary was crossed since the
    /// last call. Only an observed replay asks.
    fn epoch_sample(&mut self, _heap: &H) -> Option<EpochSample> {
        None
    }
    /// Counters of the learner behind the predictions, if there is one.
    fn learner_stats(&self) -> Option<LearnerStats> {
        None
    }
}

/// The predictor of the non-predicting allocators.
pub(crate) struct NoPrediction;

impl<H> Predict<H> for NoPrediction {
    fn on_alloc(&mut self, _record: usize, _size: u32) -> Result<bool, Corrupt> {
        Ok(false)
    }
}

/// The frozen per-object bitmap of an offline-trained database.
impl<H> Predict<H> for &[bool] {
    fn on_alloc(&mut self, record: usize, _size: u32) -> Result<bool, Corrupt> {
        self.get(record).copied().ok_or_else(|| {
            Corrupt(format!(
                "object {record} has no prediction ({} known)",
                self.len()
            ))
        })
    }
}

/// Per-object bookkeeping for the online replay: 16 bytes for every
/// object ever born, so the flags share a word with the site row.
#[derive(Debug, Clone, Copy, Default)]
struct OnlineObj {
    birth: u64,
    size: u32,
    /// The site's row in the learner (`ROW_MASK`) and the flags below.
    site: u32,
}

/// Predicted short-lived at allocation.
const PREDICTED: u32 = 1 << 31;
/// Already reported to the learner as pinning its arena.
const REPORTED: u32 = 1 << 30;
const LIVE: u32 = 1 << 29;
const ROW_MASK: u32 = LIVE - 1;

/// The self-training predictor of [`ReplayPlan::ArenaOnline`]: the
/// learner, plus the per-object table and aging queue that turn the
/// event stream into the lifetimes it learns from.
pub(crate) struct Online<'a> {
    sites: &'a [u64],
    learner: OnlineLearner,
    epoch: EpochConfig,
    /// Indexed by record; rows of objects not born yet are never read.
    objs: Vec<OnlineObj>,
    /// Predicted objects in birth order; the front is always the oldest,
    /// so aging is O(1) amortized.
    aging: VecDeque<usize>,
    /// The next clock reading at which a timeline sample is due.
    next_tick: u64,
    /// Bytes currently live in the arena area.
    live_arena_bytes: u64,
}

impl<'a> Online<'a> {
    pub(crate) fn new(sites: &'a [u64], epoch: EpochConfig) -> Online<'a> {
        Online {
            sites,
            learner: OnlineLearner::new(epoch),
            epoch,
            objs: Vec::new(),
            aging: VecDeque::new(),
            next_tick: epoch.epoch_bytes,
            live_arena_bytes: 0,
        }
    }
}

impl Predict<ArenaAllocator> for Online<'_> {
    fn on_alloc(&mut self, record: usize, size: u32) -> Result<bool, Corrupt> {
        let key = *self.sites.get(record).ok_or_else(|| {
            Corrupt(format!(
                "object {record} has no site fingerprint ({} known)",
                self.sites.len()
            ))
        })?;
        // The one hash this object costs: its free and a pin report
        // hand the row back.
        let row = self.learner.site_row(key);
        if row > ROW_MASK {
            return Err(Corrupt(format!(
                "object {record} is at allocation site {row}; at most {ROW_MASK} sites are supported"
            )));
        }
        let birth = self.learner.clock();
        let predicted = self.learner.record_alloc_at(row, u64::from(size));
        if record >= self.objs.len() {
            self.objs.resize(record + 1, OnlineObj::default());
        }
        self.objs[record] = OnlineObj {
            birth,
            size,
            site: row | LIVE | if predicted { PREDICTED } else { 0 },
        };
        if predicted {
            self.aging.push_back(record);
        }
        // Aging scan: a predicted object still live past the threshold
        // pins its arena — report it once (it leaves the queue here).
        while let Some(&oldest) = self.aging.front() {
            let obj = &mut self.objs[oldest];
            if self.learner.clock().saturating_sub(obj.birth) < self.epoch.threshold {
                break;
            }
            self.aging.pop_front();
            if obj.site & LIVE != 0 {
                obj.site |= REPORTED;
                self.learner
                    .note_pinned_at(obj.site & ROW_MASK, u64::from(obj.size));
            }
        }
        Ok(predicted)
    }

    fn placed(&mut self, size: u32, in_arena: bool) {
        if in_arena {
            self.live_arena_bytes += u64::from(size);
        }
    }

    fn on_free(&mut self, record: usize, was_in_arena: bool) {
        // The slot table has checked that the object was live.
        let obj = &mut self.objs[record];
        obj.site &= !LIVE;
        if was_in_arena {
            self.live_arena_bytes = self.live_arena_bytes.saturating_sub(u64::from(obj.size));
        }
        // A pinning misprediction was already reported by the aging
        // scan; don't count its free a second time.
        let counts_as_misprediction = obj.site & (PREDICTED | REPORTED) == PREDICTED;
        self.learner.record_free_at(
            obj.site & ROW_MASK,
            u64::from(obj.size),
            obj.birth,
            counts_as_misprediction,
        );
    }

    /// Describes the learner and arena state at an epoch boundary.
    fn epoch_sample(&mut self, heap: &ArenaAllocator) -> Option<EpochSample> {
        let clock = self.learner.clock();
        if clock < self.next_tick {
            return None;
        }
        lifepred_flight::instant(catalog::REPLAY_EPOCH, clock);
        while self.next_tick <= clock {
            self.next_tick = self.next_tick.saturating_add(self.epoch.epoch_bytes);
        }
        let stats = self.learner.stats();
        let used = heap.arena_used_bytes();
        let total = heap.config().total_bytes();
        Some(EpochSample {
            epoch: stats.epochs,
            clock_bytes: clock,
            generation: self.learner.generation(),
            short_sites: stats.short_sites,
            sites: stats.sites,
            live_bytes: self.live_arena_bytes,
            max_heap_bytes: heap.max_heap_bytes(),
            utilization_pct: pct(used, total),
            // Bump-pointer bytes consumed by objects that are already
            // dead but whose arena has not drained and reset yet.
            fragmentation_pct: pct(used.saturating_sub(self.live_arena_bytes), used),
            mispredictions: stats.mispredictions,
            demotions: stats.demotions,
        })
    }

    fn learner_stats(&self) -> Option<LearnerStats> {
        Some(self.learner.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_per_object_row_is_sixteen_bytes() {
        assert!(std::mem::size_of::<OnlineObj>() <= 16);
    }
}
