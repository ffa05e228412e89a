//! The predictors a replay can consult: none, a frozen per-object
//! bitmap from an offline-trained database, or the online learner. A
//! new predictor is one [`Predict`] impl here and one
//! [`ReplayPlan`](crate::ReplayPlan) variant naming it.

use crate::arena::ArenaAllocator;
use crate::live::{LiveObj, LiveTable};
use crate::replay::{pct, Corrupt};
use lifepred_adaptive::{EpochConfig, LearnerStats, OnlineLearner};
use lifepred_obs::EpochSample;
use std::collections::VecDeque;

/// Where the replay loop gets each allocation's lifetime prediction,
/// and what learns from the lifetimes the loop then observes. `H` is
/// the heap the predictor works with.
pub(crate) trait Predict<H> {
    /// The verdict for object `record`, about to be allocated with
    /// `size` bytes — is it short-lived? — and the
    /// [`tag`](LiveObj::tag) its live-table entry carries.
    fn on_alloc(&mut self, record: usize, size: u32) -> Result<(bool, u32), Corrupt>;
    /// That allocation was placed, in the arena area or outside it, and
    /// entered `live`.
    fn placed(&mut self, _size: u32, _in_arena: bool, _live: &mut LiveTable) {}
    /// Object `dead` was freed; the live table has already checked that
    /// it was live.
    fn on_free(&mut self, _dead: &LiveObj, _was_in_arena: bool) {}
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
    fn on_alloc(&mut self, _record: usize, _size: u32) -> Result<(bool, u32), Corrupt> {
        Ok((false, 0))
    }
}

/// The frozen per-object bitmap of an offline-trained database.
impl<H> Predict<H> for &[bool] {
    fn on_alloc(&mut self, record: usize, _size: u32) -> Result<(bool, u32), Corrupt> {
        let short = self.get(record).copied().ok_or_else(|| {
            Corrupt(format!(
                "object {record} has no prediction ({} known)",
                self.len()
            ))
        })?;
        Ok((short, 0))
    }
}

/// Predicted short-lived at allocation.
const PREDICTED: u32 = 1 << 31;
/// Already reported to the learner as pinning its arena.
const REPORTED: u32 = 1 << 30;
/// The site's row in the learner: the rest of the live entry's tag.
const ROW_MASK: u32 = REPORTED - 1;

/// The self-training predictor of [`ReplayPlan::ArenaOnline`]: the
/// learner, plus the aging queue that, with the live table's entries,
/// turns the event stream into the lifetimes it learns from.
pub(crate) struct Online<'a> {
    sites: &'a [u64],
    learner: OnlineLearner,
    epoch: EpochConfig,
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
            aging: VecDeque::new(),
            next_tick: epoch.epoch_bytes,
            live_arena_bytes: 0,
        }
    }
}

impl Predict<ArenaAllocator> for Online<'_> {
    fn on_alloc(&mut self, record: usize, size: u32) -> Result<(bool, u32), Corrupt> {
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
        let predicted = self.learner.record_alloc_at(row, u64::from(size));
        if predicted {
            self.aging.push_back(record);
        }
        Ok((predicted, row | if predicted { PREDICTED } else { 0 }))
    }

    fn placed(&mut self, size: u32, in_arena: bool, live: &mut LiveTable) {
        if in_arena {
            self.live_arena_bytes += u64::from(size);
        }
        // Aging scan: a predicted object still live past the threshold
        // pins its arena — report it once (it leaves the queue here). A
        // dead one leaves whatever its age: the queue is in birth
        // order, so no live object behind it is older.
        while let Some(&oldest) = self.aging.front() {
            let Some(obj) = live.get_mut(oldest) else {
                self.aging.pop_front();
                continue;
            };
            if self.learner.clock().saturating_sub(obj.birth) < self.epoch.threshold {
                break;
            }
            self.aging.pop_front();
            obj.tag |= REPORTED;
            self.learner
                .note_pinned_at(obj.tag & ROW_MASK, u64::from(obj.size));
        }
    }

    fn on_free(&mut self, dead: &LiveObj, was_in_arena: bool) {
        if was_in_arena {
            self.live_arena_bytes = self.live_arena_bytes.saturating_sub(u64::from(dead.size));
        }
        // A pinning misprediction was already reported by the aging
        // scan; don't count its free a second time.
        let counts_as_misprediction = dead.tag & (PREDICTED | REPORTED) == PREDICTED;
        self.learner.record_free_at(
            dead.tag & ROW_MASK,
            u64::from(dead.size),
            dead.birth,
            counts_as_misprediction,
        );
    }

    /// Describes the learner and arena state at an epoch boundary.
    fn epoch_sample(&mut self, heap: &ArenaAllocator) -> Option<EpochSample> {
        let clock = self.learner.clock();
        if clock < self.next_tick {
            return None;
        }
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
