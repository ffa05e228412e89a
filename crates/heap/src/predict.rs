//! The predictors a replay can consult: none, a frozen database asked
//! once per site, or the online learner. A new predictor is one
//! [`Predict`] impl here and one [`ReplayPlan`](crate::ReplayPlan)
//! variant naming it.

use crate::arena::ArenaAllocator;
use crate::live::{LiveObj, LiveTable};
use crate::replay::{missing, pct, Corrupt, ReplayStreamError};
use lifepred_adaptive::{EpochConfig, LearnerStats, OnlineLearner};
use lifepred_core::{SiteConfig, SiteExtractor, SiteId, SiteKey};
use lifepred_obs::EpochSample;
use lifepred_trace::{AllocationRecord, RecordSource};
use std::borrow::Borrow;
use std::collections::VecDeque;

/// A replay step's `T`, or why the replay stops.
pub(crate) type Fallible<T, E> = Result<T, ReplayStreamError<E>>;

/// Where the replay loop gets each allocation's lifetime prediction,
/// and what learns from the lifetimes the loop then observes. `H` is
/// the heap the predictor works with, `E` the trace's error type.
pub(crate) trait Predict<H, E> {
    /// The verdict for object `record`, about to be allocated with
    /// `size` bytes — is it short-lived? — and the
    /// [`tag`](LiveObj::tag) its live-table entry carries.
    fn on_alloc(&mut self, record: usize, size: u32) -> Fallible<(bool, u32), E>;
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

impl<H, E> Predict<H, E> for NoPrediction {
    fn on_alloc(&mut self, _record: usize, _size: u32) -> Fallible<(bool, u32), E> {
        Ok((false, 0))
    }
}

/// A frozen verdict per allocation: `self(record)` says whether object
/// `record` is short-lived.
impl<H, E, F: FnMut(usize) -> Fallible<bool, E>> Predict<H, E> for F {
    fn on_alloc(&mut self, record: usize, _size: u32) -> Fallible<(bool, u32), E> {
        Ok((self(record)?, 0))
    }
}

/// The records walk in lock step with the events: every allocation is
/// of the next record in birth order, so each takes one record's dense
/// [`SiteId`]. Nothing it holds is sized by the records.
pub(crate) struct SiteCursor<'t, R> {
    records: R,
    extractor: SiteExtractor<'t>,
}

impl<'t, R, B, E> SiteCursor<'t, R>
where
    R: Iterator<Item = Result<B, E>>,
    B: Borrow<AllocationRecord>,
{
    pub(crate) fn new(source: RecordSource<'t, R>, sites: SiteConfig) -> Self {
        let extractor = SiteExtractor::from_chains(source.chains, sites);
        SiteCursor {
            records: source.records,
            extractor,
        }
    }

    /// The site of object `record`, the next record of the walk; an
    /// error past the last record names the `what` it lacks.
    pub(crate) fn next(&mut self, record: usize, what: &str) -> Fallible<SiteId, E> {
        match self.records.next() {
            Some(Ok(next)) => Ok(self.extractor.site_id(next.borrow())),
            Some(Err(e)) => Err(ReplayStreamError::Source(e)),
            None => Err(missing(record, what, record)),
        }
    }

    /// Whether object `record` is short-lived, by its site's entry in
    /// `verdicts` (indexed by site id): `predicts` fills that in from
    /// the site's key on its first record only.
    pub(crate) fn verdict(
        &mut self,
        record: usize,
        verdicts: &mut Vec<bool>,
        predicts: impl FnOnce(&SiteKey) -> bool,
    ) -> Fallible<bool, E> {
        let site = self.next(record, "prediction")?.0 as usize;
        if site == verdicts.len() {
            verdicts.push(predicts(&self.extractor.key(SiteId(site as u32))));
        }
        Ok(verdicts[site])
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
/// turns the event stream into the lifetimes it learns from. `sites`
/// gives each allocation's dense site id, which is its learner row.
pub(crate) struct Online<F> {
    sites: F,
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

impl<F> Online<F> {
    pub(crate) fn new(sites: F, epoch: EpochConfig) -> Online<F> {
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

impl<E, F> Predict<ArenaAllocator, E> for Online<F>
where
    F: FnMut(usize) -> Fallible<u32, E>,
{
    fn on_alloc(&mut self, record: usize, size: u32) -> Fallible<(bool, u32), E> {
        // The object's free and a pin report hand the row back.
        let row = (self.sites)(record)?;
        if row > ROW_MASK {
            return Err(Corrupt(format!(
                "object {record} is at allocation site {row}; at most {ROW_MASK} sites are supported"
            ))
            .into());
        }
        let predicted = self.learner.record_alloc(row, u64::from(size));
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
                .note_pinned(obj.tag & ROW_MASK, u64::from(obj.size));
        }
    }

    fn on_free(&mut self, dead: &LiveObj, was_in_arena: bool) {
        if was_in_arena {
            self.live_arena_bytes = self.live_arena_bytes.saturating_sub(u64::from(dead.size));
        }
        // A pinning misprediction was already reported by the aging
        // scan; don't count its free a second time.
        let counts_as_misprediction = dead.tag & (PREDICTED | REPORTED) == PREDICTED;
        self.learner.record_free(
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
