//! The differential oracle for [`lifepred_adaptive::OnlineLearner`]: the
//! learner as it was before its epoch roll visited only the active
//! rows. Every epoch walks every site and `stats()` recounts the short
//! sites — the scan-everything behaviour the dense-row learner must
//! reproduce output for output.
//!
//! It also keeps the promotion rule the learner had before it dropped
//! its per-site P² state: a P² tail gate at the 0.95 quantile, a
//! minimum of one free for an epoch to count, and one clean epoch to
//! promote a fresh site. The gate is asserted to pass every time it is
//! evaluated, which is what lets the learner do without it.
//!
//! Shared by path (`#[path = ...]`) with the root `replay_paths` and
//! the CLI `e2e` suites, so it names its dependencies by their crate
//! names and nothing else.

// Each suite drives a different part of the oracle.
#![allow(dead_code)]

use lifepred_adaptive::{EpochConfig, LearnerStats};
use lifepred_quantile::P2Quantile;
use std::collections::{HashMap, VecDeque};

/// The lifetime quantile the P² gate tracks per site.
const TAIL_QUANTILE: f64 = 0.95;
/// Frees an epoch needs to count as clean evidence.
const MIN_EPOCH_FREES: u64 = 1;
/// Clean epochs a fresh site needs before it is first promoted.
const PROMOTE_EPOCHS: u32 = 1;

/// Where a site currently sits in the promotion/demotion cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Gathering evidence; not predicted.
    Observing,
    /// Predicted short-lived.
    Short,
    /// Was predicted and mispredicted; must re-qualify.
    Demoted,
}

#[derive(Debug)]
struct SiteEntry {
    phase: Phase,
    /// Consecutive clean active epochs in the current streak.
    clean_run: u32,
    /// P² estimate of the lifetime tail quantile over the current
    /// clean streak (reset on dirty epochs and demotions).
    tail: P2Quantile,
    /// This epoch's activity.
    epoch_frees: u64,
    epoch_long: u64,
}

impl SiteEntry {
    fn new() -> Self {
        SiteEntry {
            phase: Phase::Observing,
            clean_run: 0,
            tail: P2Quantile::new(TAIL_QUANTILE),
            epoch_frees: 0,
            epoch_long: 0,
        }
    }
}

#[derive(Debug)]
pub struct ScanAllLearner {
    config: EpochConfig,
    clock: u64,
    next_epoch_at: u64,
    /// Bumped whenever the predicted-short set changes; lets cached
    /// snapshots detect staleness with one integer compare.
    generation: u64,
    sites: HashMap<u64, SiteEntry>,
    stats: LearnerStats,
}

impl ScanAllLearner {
    /// Creates a learner; the first epoch ends after
    /// `config.epoch_bytes` of allocation.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`EpochConfig::validate`].
    pub fn new(config: EpochConfig) -> Self {
        config.validate().expect("valid epoch config");
        ScanAllLearner {
            config,
            clock: 0,
            next_epoch_at: config.epoch_bytes,
            generation: 0,
            sites: HashMap::new(),
            stats: LearnerStats::default(),
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &EpochConfig {
        &self.config
    }

    /// The byte clock: bytes allocated so far.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Completed epochs.
    pub fn epochs(&self) -> u64 {
        self.stats.epochs
    }

    /// Changes whenever the predicted-short set changes.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Whether `key` is currently predicted short-lived.
    pub fn predicts(&self, key: u64) -> bool {
        self.sites
            .get(&key)
            .is_some_and(|e| e.phase == Phase::Short)
    }

    /// Counters so far (short-site count recomputed on the fly).
    pub fn stats(&self) -> LearnerStats {
        let mut s = self.stats;
        s.sites = self.sites.len() as u64;
        s.short_sites = self
            .sites
            .values()
            .filter(|e| e.phase == Phase::Short)
            .count() as u64;
        s
    }

    /// Records an allocation: advances the byte clock (rolling any due
    /// epochs first) and returns the prediction for this object.
    pub fn record_alloc(&mut self, key: u64, size: u64) -> bool {
        self.clock += size;
        self.roll_due();
        let entry = self.sites.entry(key).or_insert_with(SiteEntry::new);
        let predicted = entry.phase == Phase::Short;
        self.stats.total_allocs += 1;
        self.stats.total_bytes += size;
        if predicted {
            self.stats.predicted_allocs += 1;
            self.stats.predicted_bytes += size;
        }
        predicted
    }

    /// Records a free. `birth_clock` is the byte clock just before the
    /// object's allocation and `predicted` its alloc-time prediction.
    ///
    /// A predicted object whose lifetime reached the threshold is a
    /// misprediction: its site is demoted immediately, not at the next
    /// epoch boundary.
    pub fn record_free(&mut self, key: u64, size: u64, birth_clock: u64, predicted: bool) {
        let lifetime = self.clock.saturating_sub(birth_clock);
        let long = lifetime >= self.config.threshold;
        self.stats.total_frees += 1;
        if long {
            self.stats.long_frees += 1;
        }
        let entry = self.sites.entry(key).or_insert_with(SiteEntry::new);
        entry.epoch_frees += 1;
        entry.tail.observe(lifetime as f64);
        if long {
            entry.epoch_long += 1;
            if predicted {
                self.stats.mispredictions += 1;
                self.stats.error_bytes += size;
            }
            if entry.phase == Phase::Short {
                Self::demote(entry, &mut self.stats, &mut self.generation);
            }
        }
    }

    /// Reports a predicted-short object that is still live past the
    /// threshold (e.g. it pins an arena). Demotes the site immediately
    /// and counts a misprediction; the current epoch becomes dirty.
    pub fn note_pinned(&mut self, key: u64, size: u64) {
        self.stats.mispredictions += 1;
        self.stats.error_bytes += size;
        let entry = self.sites.entry(key).or_insert_with(SiteEntry::new);
        entry.epoch_long += 1;
        if entry.phase == Phase::Short {
            Self::demote(entry, &mut self.stats, &mut self.generation);
        }
    }

    /// Ends the current epoch unconditionally and reschedules the next
    /// automatic roll one `epoch_bytes` after the current clock.
    pub fn roll_epoch(&mut self) {
        self.end_epoch();
        self.next_epoch_at = self.clock + self.config.epoch_bytes;
    }

    fn roll_due(&mut self) {
        while self.clock >= self.next_epoch_at {
            self.next_epoch_at += self.config.epoch_bytes;
            self.end_epoch();
        }
    }

    fn demote(entry: &mut SiteEntry, stats: &mut LearnerStats, generation: &mut u64) {
        entry.phase = Phase::Demoted;
        entry.clean_run = 0;
        // The streak evidence restarts: the site must prove itself
        // again on fresh observations.
        entry.tail = P2Quantile::new(TAIL_QUANTILE);
        stats.demotions += 1;
        *generation += 1;
    }

    /// Applies the per-epoch all-short rule to every active site.
    fn end_epoch(&mut self) {
        let cfg = self.config;
        for entry in self.sites.values_mut() {
            let active = entry.epoch_frees > 0 || entry.epoch_long > 0;
            if active {
                if entry.epoch_long > 0 {
                    // Dirty epoch: the streak restarts. (A mispredicted
                    // Short site was already demoted on the spot; this
                    // also catches batched feedback.)
                    entry.clean_run = 0;
                    entry.tail = P2Quantile::new(TAIL_QUANTILE);
                    if entry.phase == Phase::Short {
                        entry.phase = Phase::Demoted;
                        self.stats.demotions += 1;
                        self.generation += 1;
                    }
                } else if entry.epoch_frees >= MIN_EPOCH_FREES {
                    // Clean epoch: every free died short.
                    entry.clean_run = entry.clean_run.saturating_add(1);
                    let tail_ok =
                        entry.tail.count() < 5 || entry.tail.estimate() < cfg.threshold as f64;
                    // Every lifetime the tail saw since its last reset
                    // (a dirty epoch or a demotion) is under the
                    // threshold, and a P² estimate never exceeds the
                    // largest observation.
                    assert!(
                        tail_ok,
                        "the P² tail gate refused a clean epoch: estimate {} of {} observations",
                        entry.tail.estimate(),
                        entry.tail.count()
                    );
                    let needed = match entry.phase {
                        Phase::Observing => Some(PROMOTE_EPOCHS),
                        Phase::Demoted => Some(cfg.requalify_epochs),
                        Phase::Short => None,
                    };
                    if let Some(needed) = needed {
                        if entry.clean_run >= needed && tail_ok {
                            entry.phase = Phase::Short;
                            entry.clean_run = 0;
                            self.stats.promotions += 1;
                            self.generation += 1;
                        }
                    }
                }
                // else: a trickle under MIN_EPOCH_FREES — no evidence
                // either way.
            }
            entry.epoch_frees = 0;
            entry.epoch_long = 0;
        }
        self.stats.epochs += 1;
    }
}

/// Per-object bookkeeping of [`ScanAllReplay`].
#[derive(Debug, Clone, Copy)]
struct Obj {
    key: u64,
    size: u32,
    birth: u64,
    predicted: bool,
    reported: bool,
    live: bool,
}

/// The oracle for a whole online replay's learner: turns an alloc/free
/// stream into the calls on a [`ScanAllLearner`] exactly as
/// `lifepred_heap`'s online predictor did before it kept site rows —
/// a keyed per-object table and the aging queue that reports a
/// predicted object still live past the threshold once.
#[derive(Debug)]
pub struct ScanAllReplay {
    pub learner: ScanAllLearner,
    /// The learner's counters at each epoch tick, as an observed replay
    /// samples them for its `lifepred_sim_epochs` timeline.
    pub samples: Vec<LearnerStats>,
    objs: Vec<Option<Obj>>,
    aging: VecDeque<usize>,
    next_tick: u64,
}

impl ScanAllReplay {
    pub fn new(epoch: EpochConfig) -> Self {
        ScanAllReplay {
            learner: ScanAllLearner::new(epoch),
            samples: Vec::new(),
            objs: Vec::new(),
            aging: VecDeque::new(),
            next_tick: epoch.epoch_bytes,
        }
    }

    /// Object `record` of site `key` is allocated with `size` bytes.
    pub fn alloc(&mut self, record: usize, key: u64, size: u32) {
        let epoch = *self.learner.config();
        let birth = self.learner.clock();
        let predicted = self.learner.record_alloc(key, u64::from(size));
        if record >= self.objs.len() {
            self.objs.resize(record + 1, None);
        }
        self.objs[record] = Some(Obj {
            key,
            size,
            birth,
            predicted,
            reported: false,
            live: true,
        });
        if predicted {
            self.aging.push_back(record);
        }
        while let Some(&oldest) = self.aging.front() {
            let obj = self.objs[oldest]
                .as_mut()
                .expect("aging entry was allocated");
            if self.learner.clock().saturating_sub(obj.birth) < epoch.threshold {
                break;
            }
            self.aging.pop_front();
            if obj.live && !obj.reported {
                obj.reported = true;
                self.learner.note_pinned(obj.key, u64::from(obj.size));
            }
        }
        let clock = self.learner.clock();
        if clock >= self.next_tick {
            while self.next_tick <= clock {
                self.next_tick = self.next_tick.saturating_add(epoch.epoch_bytes);
            }
            self.samples.push(self.learner.stats());
        }
    }

    /// Object `record`, live until now, is freed.
    pub fn free(&mut self, record: usize) {
        let obj = self.objs[record]
            .as_mut()
            .expect("freed object was allocated");
        obj.live = false;
        let counts_as_misprediction = obj.predicted && !obj.reported;
        self.learner.record_free(
            obj.key,
            u64::from(obj.size),
            obj.birth,
            counts_as_misprediction,
        );
    }
}
