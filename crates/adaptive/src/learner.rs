//! The single-threaded online epoch learner.

use crate::config::EpochConfig;
use lifepred_quantile::P2Quantile;
use std::collections::{HashMap, HashSet};

/// How many individual lifetimes an [`EpochAgg`] carries to feed the
/// per-site P² estimator when feedback arrives in batches.
pub const AGG_SAMPLE_CAP: usize = 8;

/// Per-site feedback accumulated away from the learner (e.g. under a
/// shard lock) and merged in at epoch boundaries with
/// [`OnlineLearner::absorb`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EpochAgg {
    /// Allocations observed at the site this epoch.
    pub allocs: u64,
    /// Bytes allocated at the site this epoch.
    pub alloc_bytes: u64,
    /// Allocations that were predicted short-lived at allocation time.
    pub predicted_allocs: u64,
    /// Bytes that were predicted short-lived at allocation time.
    pub predicted_bytes: u64,
    /// Frees observed this epoch.
    pub frees: u64,
    /// Frees whose lifetime reached the threshold. Mispredicted
    /// (predicted-short) long frees must *not* be counted here — report
    /// those through [`OnlineLearner::note_pinned`] instead, which also
    /// dirties the epoch.
    pub long_frees: u64,
    /// Largest lifetime freed this epoch.
    pub max_lifetime: u64,
    /// Up to [`AGG_SAMPLE_CAP`] individual lifetimes, for the per-site
    /// quantile estimator.
    pub samples: Vec<u64>,
}

impl EpochAgg {
    /// Records one allocation into the aggregate.
    pub fn on_alloc(&mut self, size: u64, predicted: bool) {
        self.allocs += 1;
        self.alloc_bytes += size;
        if predicted {
            self.predicted_allocs += 1;
            self.predicted_bytes += size;
        }
    }

    /// Records one free into the aggregate. `long` marks lifetimes at
    /// or past the threshold (for *unpredicted* objects).
    pub fn on_free(&mut self, lifetime: u64, long: bool) {
        self.frees += 1;
        self.max_lifetime = self.max_lifetime.max(lifetime);
        if long {
            self.long_frees += 1;
        }
        if self.samples.len() < AGG_SAMPLE_CAP {
            self.samples.push(lifetime);
        }
    }
}

/// Counters describing the learner's behaviour so far.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LearnerStats {
    /// Epochs completed.
    pub epochs: u64,
    /// Distinct sites seen.
    pub sites: u64,
    /// Sites currently predicted short-lived.
    pub short_sites: u64,
    /// Promotions (including requalifications after a demotion).
    pub promotions: u64,
    /// Demotions (a predicted site caught allocating long-lived data).
    pub demotions: u64,
    /// Predicted-short objects caught living past the threshold, at
    /// free time or while still live (arena pinning).
    pub mispredictions: u64,
    /// All allocations observed.
    pub total_allocs: u64,
    /// Allocations predicted short-lived.
    pub predicted_allocs: u64,
    /// All bytes observed.
    pub total_bytes: u64,
    /// Bytes predicted short-lived.
    pub predicted_bytes: u64,
    /// Bytes of predicted-short objects that turned out long-lived.
    pub error_bytes: u64,
    /// All frees observed.
    pub total_frees: u64,
    /// Frees with lifetime at or past the threshold.
    pub long_frees: u64,
}

impl LearnerStats {
    /// Percentage of allocations predicted short-lived (coverage).
    pub fn coverage_alloc_pct(&self) -> f64 {
        pct(self.predicted_allocs, self.total_allocs)
    }

    /// Publishes every counter as a `lifepred_learner_*` gauge in
    /// `registry` (gauges, not counters: a stats snapshot is a level,
    /// re-exported wholesale on each call).
    pub fn export(&self, registry: &lifepred_obs::Registry) {
        let fields: [(&str, u64); 13] = [
            ("lifepred_learner_epochs", self.epochs),
            ("lifepred_learner_sites", self.sites),
            ("lifepred_learner_short_sites", self.short_sites),
            ("lifepred_learner_promotions", self.promotions),
            ("lifepred_learner_demotions", self.demotions),
            ("lifepred_learner_mispredictions", self.mispredictions),
            ("lifepred_learner_total_allocs", self.total_allocs),
            ("lifepred_learner_predicted_allocs", self.predicted_allocs),
            ("lifepred_learner_total_bytes", self.total_bytes),
            ("lifepred_learner_predicted_bytes", self.predicted_bytes),
            ("lifepred_learner_error_bytes", self.error_bytes),
            ("lifepred_learner_total_frees", self.total_frees),
            ("lifepred_learner_long_frees", self.long_frees),
        ];
        for (name, value) in fields {
            registry.gauge(name).set(value);
        }
    }

    /// Percentage of bytes predicted short-lived (coverage).
    pub fn coverage_byte_pct(&self) -> f64 {
        pct(self.predicted_bytes, self.total_bytes)
    }

    /// Percentage of all bytes mispredicted short-lived.
    pub fn error_byte_pct(&self) -> f64 {
        pct(self.error_bytes, self.total_bytes)
    }
}

fn pct(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        100.0 * num as f64 / den as f64
    }
}

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
    key: u64,
    phase: Phase,
    /// Consecutive clean active epochs in the current streak.
    clean_run: u32,
    /// P² estimate of the configured lifetime tail quantile over the
    /// current clean streak (reset on dirty epochs and demotions).
    tail: P2Quantile,
    /// This epoch's activity.
    epoch_frees: u64,
    epoch_long: u64,
}

impl SiteEntry {
    fn new(key: u64, quantile: f64) -> Self {
        SiteEntry {
            key,
            phase: Phase::Observing,
            clean_run: 0,
            tail: P2Quantile::new(quantile),
            epoch_frees: 0,
            epoch_long: 0,
        }
    }
}

/// The online self-correcting lifetime predictor.
///
/// Trains itself in epochs while the program runs: per-site streaming
/// lifetime statistics feed the paper's *all-short* rule applied per
/// epoch, and a misprediction feedback loop demotes sites on the spot —
/// a predicted-short object that outlives the threshold (observed at
/// free time or reported while still live via
/// [`OnlineLearner::note_pinned`]) sends its site back to
/// the demoted phase, where only `requalify_epochs` consecutive clean
/// epochs restore it.
///
/// Keys are caller-defined `u64` site fingerprints, so the same learner
/// serves the trace-replay simulator (hashed call-chain site keys) and
/// the runtime allocator (galloc's return-address fingerprints).
///
/// # Examples
///
/// ```
/// use lifepred_adaptive::{EpochConfig, OnlineLearner};
///
/// let cfg = EpochConfig::default();
/// let mut l = OnlineLearner::new(cfg);
/// let site = 0xfeed;
/// // A fresh site is not predicted; short frees through one epoch
/// // promote it.
/// while l.epochs() < 2 {
///     let birth = l.clock();
///     let predicted = l.record_alloc(site, 64);
///     l.record_free(site, 64, birth, predicted);
/// }
/// assert!(l.predicts(site));
/// ```
#[derive(Debug)]
pub struct OnlineLearner {
    config: EpochConfig,
    clock: u64,
    next_epoch_at: u64,
    /// Bumped whenever the predicted-short set changes; lets cached
    /// snapshots detect staleness with one integer compare.
    generation: u64,
    /// Site key → its row in `rows`.
    index: HashMap<u64, u32>,
    rows: Vec<SiteEntry>,
    /// The rows with activity this epoch, each listed once: all an
    /// epoch roll visits. The epoch rule reads and writes one row at a
    /// time and every counter is a sum, so neither the order of this
    /// list nor skipping the idle rows can change any output.
    active: Vec<u32>,
    /// `sites` is filled in by [`OnlineLearner::stats`]; `short_sites`
    /// is kept current wherever a phase enters or leaves `Short`.
    stats: LearnerStats,
    /// Rows visited by epoch rolls so far.
    #[cfg(test)]
    row_visits: u64,
}

/// Adds activity to `entry`'s current epoch, listing `row` for the
/// next epoch roll if it was idle until now.
fn note_activity(entry: &mut SiteEntry, active: &mut Vec<u32>, row: u32, frees: u64, long: u64) {
    if frees == 0 && long == 0 {
        return;
    }
    if entry.epoch_frees == 0 && entry.epoch_long == 0 {
        active.push(row);
    }
    entry.epoch_frees += frees;
    entry.epoch_long += long;
}

impl OnlineLearner {
    /// Creates a learner; the first epoch ends after
    /// `config.epoch_bytes` of allocation.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`EpochConfig::validate`].
    pub fn new(config: EpochConfig) -> Self {
        config.validate().expect("valid epoch config");
        OnlineLearner {
            config,
            clock: 0,
            next_epoch_at: config.epoch_bytes,
            generation: 0,
            index: HashMap::new(),
            rows: Vec::new(),
            active: Vec::new(),
            stats: LearnerStats::default(),
            #[cfg(test)]
            row_visits: 0,
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
        self.index
            .get(&key)
            .is_some_and(|&row| self.rows[row as usize].phase == Phase::Short)
    }

    /// Counters so far.
    pub fn stats(&self) -> LearnerStats {
        LearnerStats {
            sites: self.rows.len() as u64,
            ..self.stats
        }
    }

    /// The current predicted-short set, for publication to concurrent
    /// readers.
    pub fn snapshot(&self) -> HashSet<u64> {
        let short: HashSet<u64> = self
            .rows
            .iter()
            .filter(|e| e.phase == Phase::Short)
            .map(|e| e.key)
            .collect();
        debug_assert_eq!(short.len() as u64, self.stats.short_sites);
        short
    }

    /// The row of `key`'s site, interned on first sight. A row stays
    /// valid for the learner's lifetime: a caller that keeps it with
    /// each object hashes the key once per object, and reports the
    /// object's later events through [`OnlineLearner::record_free_at`]
    /// and [`OnlineLearner::note_pinned_at`].
    pub fn site_row(&mut self, key: u64) -> u32 {
        let rows = &mut self.rows;
        let quantile = self.config.tail_quantile;
        *self.index.entry(key).or_insert_with(|| {
            let row = u32::try_from(rows.len()).expect("fewer than 2^32 sites");
            rows.push(SiteEntry::new(key, quantile));
            row
        })
    }

    /// Records an allocation: advances the byte clock (rolling any due
    /// epochs first) and returns the prediction for this object.
    pub fn record_alloc(&mut self, key: u64, size: u64) -> bool {
        let row = self.site_row(key);
        self.record_alloc_at(row, size)
    }

    /// [`OnlineLearner::record_alloc`] for a site already resolved to
    /// its [`OnlineLearner::site_row`].
    pub fn record_alloc_at(&mut self, row: u32, size: u64) -> bool {
        self.clock += size;
        self.roll_due();
        let predicted = self.rows[row as usize].phase == Phase::Short;
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
        let row = self.site_row(key);
        self.record_free_at(row, size, birth_clock, predicted);
    }

    /// [`OnlineLearner::record_free`] for a site already resolved to
    /// its [`OnlineLearner::site_row`].
    pub fn record_free_at(&mut self, row: u32, size: u64, birth_clock: u64, predicted: bool) {
        let lifetime = self.clock.saturating_sub(birth_clock);
        let long = lifetime >= self.config.threshold;
        self.stats.total_frees += 1;
        let entry = &mut self.rows[row as usize];
        note_activity(entry, &mut self.active, row, 1, u64::from(long));
        entry.tail.observe(lifetime as f64);
        if long {
            self.stats.long_frees += 1;
            if predicted {
                self.stats.mispredictions += 1;
                self.stats.error_bytes += size;
            }
            self.demote_if_short(row);
        }
    }

    /// Reports a predicted-short object that is still live past the
    /// threshold (e.g. it pins an arena). Demotes the site immediately
    /// and counts a misprediction; the current epoch becomes dirty.
    pub fn note_pinned(&mut self, key: u64, size: u64) {
        let row = self.site_row(key);
        self.note_pinned_at(row, size);
    }

    /// [`OnlineLearner::note_pinned`] for a site already resolved to
    /// its [`OnlineLearner::site_row`].
    pub fn note_pinned_at(&mut self, row: u32, size: u64) {
        self.stats.mispredictions += 1;
        self.stats.error_bytes += size;
        note_activity(&mut self.rows[row as usize], &mut self.active, row, 0, 1);
        self.demote_if_short(row);
    }

    /// Merges feedback accumulated elsewhere (per-shard buffers) into
    /// the learner. Mispredicted long frees must have been reported via
    /// [`OnlineLearner::note_pinned`] instead of `agg.long_frees`.
    pub fn absorb(&mut self, key: u64, agg: &EpochAgg) {
        self.stats.total_allocs += agg.allocs;
        self.stats.total_bytes += agg.alloc_bytes;
        self.stats.predicted_allocs += agg.predicted_allocs;
        self.stats.predicted_bytes += agg.predicted_bytes;
        self.stats.total_frees += agg.frees;
        self.stats.long_frees += agg.long_frees;
        let row = self.site_row(key);
        let entry = &mut self.rows[row as usize];
        note_activity(entry, &mut self.active, row, agg.frees, agg.long_frees);
        for &lifetime in &agg.samples {
            entry.tail.observe(lifetime as f64);
        }
        if agg.long_frees > 0 {
            self.demote_if_short(row);
        }
    }

    /// Advances the byte clock to `to` (callers with their own atomic
    /// clock), rolling any epochs that became due.
    pub fn advance_clock(&mut self, to: u64) {
        if to > self.clock {
            self.clock = to;
        }
        self.roll_due();
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

    /// A site caught allocating long-lived data stops being predicted
    /// on the spot, and its streak evidence restarts: it must prove
    /// itself again on fresh observations.
    fn demote_if_short(&mut self, row: u32) {
        let entry = &mut self.rows[row as usize];
        if entry.phase == Phase::Short {
            entry.phase = Phase::Demoted;
            entry.clean_run = 0;
            entry.tail = P2Quantile::new(self.config.tail_quantile);
            self.stats.short_sites -= 1;
            self.stats.demotions += 1;
            self.generation += 1;
        }
    }

    /// Applies the per-epoch all-short rule to every site that was
    /// active this epoch; an idle site's state does not change at a
    /// roll, so it is not visited.
    fn end_epoch(&mut self) {
        let cfg = self.config;
        for &row in &self.active {
            let entry = &mut self.rows[row as usize];
            // Holds unless a row was listed twice (its first visit
            // cleared it) or listed without activity.
            debug_assert!(entry.epoch_frees > 0 || entry.epoch_long > 0);
            #[cfg(test)]
            {
                self.row_visits += 1;
            }
            if entry.epoch_long > 0 {
                // Dirty epoch: the streak restarts. Every call that
                // reports a long lifetime demotes a Short site on the
                // spot, so none is left to demote here.
                debug_assert!(entry.phase != Phase::Short);
                entry.clean_run = 0;
                entry.tail = P2Quantile::new(cfg.tail_quantile);
            } else if entry.epoch_frees >= cfg.min_epoch_frees {
                // Clean epoch: every free died short.
                entry.clean_run = entry.clean_run.saturating_add(1);
                let tail_ok =
                    entry.tail.count() < 5 || entry.tail.estimate() < cfg.threshold as f64;
                let needed = match entry.phase {
                    Phase::Observing => Some(cfg.promote_epochs),
                    Phase::Demoted => Some(cfg.requalify_epochs),
                    Phase::Short => None,
                };
                if let Some(needed) = needed {
                    if entry.clean_run >= needed && tail_ok {
                        entry.phase = Phase::Short;
                        entry.clean_run = 0;
                        self.stats.short_sites += 1;
                        self.stats.promotions += 1;
                        self.generation += 1;
                    }
                }
            }
            // else: a trickle under min_epoch_frees — no evidence
            // either way.
            entry.epoch_frees = 0;
            entry.epoch_long = 0;
        }
        self.active.clear();
        self.stats.epochs += 1;
        // A recount is what this counter replaces; checking it at the
        // power-of-two epochs keeps debug runs proportional to events
        // too.
        debug_assert!(
            !self.stats.epochs.is_power_of_two()
                || self.stats.short_sites
                    == self.rows.iter().filter(|e| e.phase == Phase::Short).count() as u64
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> EpochConfig {
        EpochConfig {
            threshold: 1024,
            epoch_bytes: 2048,
            promote_epochs: 1,
            requalify_epochs: 3,
            min_epoch_frees: 1,
            tail_quantile: 0.95,
        }
    }

    /// Allocates and immediately frees `n` objects of `size` at `key`.
    fn churn(l: &mut OnlineLearner, key: u64, size: u64, n: usize) {
        for _ in 0..n {
            let birth = l.clock();
            let p = l.record_alloc(key, size);
            l.record_free(key, size, birth, p);
        }
    }

    #[test]
    fn fresh_site_is_not_predicted() {
        let mut l = OnlineLearner::new(tiny());
        assert!(!l.record_alloc(7, 16));
        assert!(!l.predicts(7));
    }

    #[test]
    fn clean_epoch_promotes() {
        let mut l = OnlineLearner::new(tiny());
        churn(&mut l, 7, 64, 64); // 4 KiB: two epochs
        assert!(l.predicts(7), "site should be promoted");
        assert!(l.stats().promotions >= 1);
        assert!(l.stats().predicted_allocs > 0, "later allocs predicted");
    }

    #[test]
    fn long_lifetime_blocks_promotion() {
        let mut l = OnlineLearner::new(tiny());
        // Every object outlives the threshold: never promoted.
        for _ in 0..64 {
            let birth = l.clock();
            let p = l.record_alloc(9, 64);
            // Age the object past the threshold with other traffic.
            churn(&mut l, 1000, 64, 32);
            l.record_free(9, 64, birth, p);
        }
        assert!(!l.predicts(9));
        assert_eq!(l.stats().mispredictions, 0);
    }

    #[test]
    fn misprediction_demotes_immediately() {
        let mut l = OnlineLearner::new(tiny());
        churn(&mut l, 7, 64, 64);
        assert!(l.predicts(7));
        let birth = l.clock();
        let p = l.record_alloc(7, 64);
        assert!(p);
        churn(&mut l, 1000, 64, 32); // age it past the threshold
        l.record_free(7, 64, birth, p);
        assert!(!l.predicts(7), "demotion must not wait for epoch end");
        let s = l.stats();
        assert_eq!(s.mispredictions, 1);
        assert!(s.demotions >= 1);
        assert_eq!(s.error_bytes, 64);
    }

    #[test]
    fn demoted_site_requalifies_after_k_clean_epochs() {
        let cfg = tiny();
        let mut l = OnlineLearner::new(cfg);
        churn(&mut l, 7, 64, 64);
        assert!(l.predicts(7));
        l.note_pinned(7, 64); // demote
        assert!(!l.predicts(7));
        let demoted_at = l.epochs();
        // Clean churn until requalified; must take >= requalify_epochs.
        let mut requalified_at = None;
        for _ in 0..20_000 {
            churn(&mut l, 7, 64, 1);
            if l.predicts(7) {
                requalified_at = Some(l.epochs());
                break;
            }
        }
        let requalified_at = requalified_at.expect("site must requalify");
        assert!(
            requalified_at - demoted_at >= u64::from(cfg.requalify_epochs),
            "requalified after {} epochs, hysteresis is {}",
            requalified_at - demoted_at,
            cfg.requalify_epochs
        );
    }

    #[test]
    fn note_pinned_counts_and_dirties() {
        let mut l = OnlineLearner::new(tiny());
        churn(&mut l, 7, 64, 64);
        assert!(l.predicts(7));
        let gen = l.generation();
        l.note_pinned(7, 128);
        assert!(!l.predicts(7));
        assert_eq!(l.stats().mispredictions, 1);
        assert_eq!(l.stats().error_bytes, 128);
        assert!(l.generation() > gen);
    }

    #[test]
    fn absorb_matches_direct_counting() {
        let mut l = OnlineLearner::new(tiny());
        let mut agg = EpochAgg::default();
        agg.on_alloc(64, false);
        agg.on_alloc(64, false);
        agg.on_free(64, false);
        l.absorb(7, &agg);
        let s = l.stats();
        assert_eq!(s.total_allocs, 2);
        assert_eq!(s.total_bytes, 128);
        assert_eq!(s.total_frees, 1);
        // Clean evidence promotes at the next roll.
        l.advance_clock(4096);
        assert!(l.predicts(7));
    }

    #[test]
    fn snapshot_and_generation_track_the_short_set() {
        let mut l = OnlineLearner::new(tiny());
        assert!(l.snapshot().is_empty());
        let g0 = l.generation();
        churn(&mut l, 7, 64, 64);
        assert!(l.generation() > g0);
        assert!(l.snapshot().contains(&7));
        l.note_pinned(7, 64);
        assert!(!l.snapshot().contains(&7));
    }

    #[test]
    fn roll_epoch_reschedules() {
        let mut l = OnlineLearner::new(tiny());
        churn(&mut l, 7, 64, 4);
        let e = l.epochs();
        l.roll_epoch();
        assert_eq!(l.epochs(), e + 1);
        // The manual roll pushed the next automatic roll out.
        churn(&mut l, 7, 64, 1);
        assert_eq!(l.epochs(), e + 1);
    }

    #[test]
    fn trickle_epochs_are_no_evidence() {
        let cfg = EpochConfig {
            min_epoch_frees: 8,
            ..tiny()
        };
        let mut l = OnlineLearner::new(cfg);
        // One free per epoch: under min_epoch_frees, never promoted.
        for _ in 0..16 {
            let birth = l.clock();
            let p = l.record_alloc(7, 64);
            l.record_free(7, 64, birth, p);
            l.roll_epoch();
        }
        assert!(!l.predicts(7));
    }

    /// The cost model, pinned without a stopwatch: an epoch roll
    /// visits the rows that had activity in that epoch and no others.
    #[test]
    fn epoch_rolls_visit_only_active_rows() {
        const IDLE: u64 = 50_000;
        const EPOCHS: u64 = 10_000;
        // Zero-byte objects hold the clock still: every roll below is
        // one of the explicit ones.
        let mut l = OnlineLearner::new(tiny());
        for key in 0..IDLE {
            l.record_alloc(key, 0);
        }
        l.roll_epoch();
        assert_eq!(l.row_visits, 0, "allocations alone are not activity");
        let mut active_pairs = 0;
        for epoch in 0..EPOCHS {
            // Three frees, one pin and an alloc-only aggregate in one
            // epoch still list the site once.
            if epoch % 2 == 0 {
                churn(&mut l, IDLE, 0, 3);
                l.note_pinned(IDLE, 0);
                active_pairs += 1;
            }
            let mut allocs_only = EpochAgg::default();
            allocs_only.on_alloc(0, false);
            l.absorb(epoch % IDLE, &allocs_only);
            l.roll_epoch();
        }
        assert_eq!(l.row_visits, active_pairs);
        assert_eq!(l.stats().sites, IDLE + 1);
        assert_eq!(l.stats().epochs, 1 + EPOCHS);
    }
}
