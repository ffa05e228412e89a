//! The single-threaded online epoch learner.

use crate::config::EpochConfig;

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
            registry.set(name, value);
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
    /// Gathering evidence; not predicted. One clean epoch promotes.
    Observing,
    /// Predicted short-lived.
    Short,
    /// Was predicted and mispredicted; must re-qualify. Holds the
    /// consecutive clean active epochs since the demotion or the last
    /// dirty epoch.
    Demoted(u32),
}

/// One site's row: its phase and this epoch's activity.
#[derive(Debug)]
struct SiteEntry {
    phase: Phase,
    /// On the learner's active list for this epoch: it freed an object
    /// or was reported pinned.
    listed: bool,
    /// A lifetime at or past the threshold was seen this epoch.
    dirty: bool,
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
/// Sites are dense `u32` ids numbered from 0 in first-seen order, as a
/// `lifepred_core::SiteExtractor` hands them out: a site's row is made
/// when its id first appears, which must be as the next id.
///
/// # Examples
///
/// ```
/// use lifepred_adaptive::{EpochConfig, OnlineLearner};
///
/// let cfg = EpochConfig::default();
/// let mut l = OnlineLearner::new(cfg);
/// let site = 0;
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
    /// Bumped whenever the predicted-short set changes.
    generation: u64,
    /// One row per site, indexed by site id.
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
fn note_activity(entry: &mut SiteEntry, active: &mut Vec<u32>, row: u32, long: bool) {
    if !entry.listed {
        entry.listed = true;
        active.push(row);
    }
    entry.dirty |= long;
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

    /// Whether `site` is currently predicted short-lived.
    pub fn predicts(&self, site: u32) -> bool {
        (self.rows.get(site as usize)).is_some_and(|e| e.phase == Phase::Short)
    }

    /// Counters so far.
    pub fn stats(&self) -> LearnerStats {
        LearnerStats {
            sites: self.rows.len() as u64,
            ..self.stats
        }
    }

    /// The index of `site`'s row, created if `site` is the next new id
    /// (an id past that panics).
    fn row(&mut self, site: u32) -> usize {
        let row = site as usize;
        if row == self.rows.len() {
            self.rows.push(SiteEntry {
                phase: Phase::Observing,
                listed: false,
                dirty: false,
            });
        }
        assert!(
            row < self.rows.len(),
            "site {site} skips past the sites seen"
        );
        row
    }

    /// Records an allocation at `site`: advances the byte clock (rolling
    /// any due epochs first) and returns the prediction for this object.
    pub fn record_alloc(&mut self, site: u32, size: u64) -> bool {
        self.clock += size;
        self.roll_due();
        let row = self.row(site);
        let predicted = self.rows[row].phase == Phase::Short;
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
    pub fn record_free(&mut self, site: u32, size: u64, birth_clock: u64, predicted: bool) {
        let lifetime = self.clock.saturating_sub(birth_clock);
        let long = lifetime >= self.config.threshold;
        self.stats.total_frees += 1;
        let row = self.row(site);
        note_activity(&mut self.rows[row], &mut self.active, site, long);
        if long {
            self.stats.long_frees += 1;
            if predicted {
                self.stats.mispredictions += 1;
                self.stats.error_bytes += size;
            }
            self.demote_if_short(site);
        }
    }

    /// Reports a predicted-short object of `site` that is still live
    /// past the threshold (e.g. it pins an arena). Demotes the site
    /// immediately and counts a misprediction; the current epoch
    /// becomes dirty.
    pub fn note_pinned(&mut self, site: u32, size: u64) {
        self.stats.mispredictions += 1;
        self.stats.error_bytes += size;
        let row = self.row(site);
        note_activity(&mut self.rows[row], &mut self.active, site, true);
        self.demote_if_short(site);
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
            entry.phase = Phase::Demoted(0);
            self.stats.short_sites -= 1;
            self.stats.demotions += 1;
            self.generation += 1;
        }
    }

    /// Applies the per-epoch all-short rule to every site that was
    /// active this epoch; an idle site's state does not change at a
    /// roll, so it is not visited.
    fn end_epoch(&mut self) {
        let requalify = self.config.requalify_epochs;
        for &row in &self.active {
            let entry = &mut self.rows[row as usize];
            // Holds unless a row was listed twice (its first visit
            // cleared it).
            debug_assert!(entry.listed);
            #[cfg(test)]
            {
                self.row_visits += 1;
            }
            entry.listed = false;
            let promote = if std::mem::take(&mut entry.dirty) {
                // Dirty epoch: the streak restarts. Every call that
                // reports a long lifetime demotes a Short site on the
                // spot, so none is left to demote here.
                debug_assert!(entry.phase != Phase::Short);
                if let Phase::Demoted(clean_run) = &mut entry.phase {
                    *clean_run = 0;
                }
                false
            } else {
                // Clean epoch: every free died short.
                match &mut entry.phase {
                    Phase::Observing => true,
                    Phase::Demoted(clean_run) => {
                        *clean_run += 1;
                        *clean_run >= requalify
                    }
                    Phase::Short => false,
                }
            };
            if promote {
                entry.phase = Phase::Short;
                self.stats.short_sites += 1;
                self.stats.promotions += 1;
                self.generation += 1;
            }
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
            requalify_epochs: 3,
        }
    }

    /// Allocates and immediately frees `n` objects of `size` at `site`.
    fn churn(l: &mut OnlineLearner, site: u32, size: u64, n: usize) {
        for _ in 0..n {
            let birth = l.clock();
            let p = l.record_alloc(site, size);
            l.record_free(site, size, birth, p);
        }
    }

    #[test]
    fn fresh_site_is_not_predicted() {
        let mut l = OnlineLearner::new(tiny());
        assert!(!l.record_alloc(0, 16));
        assert!(!l.predicts(0));
        assert!(!l.predicts(1), "an unseen site is not predicted");
    }

    #[test]
    fn clean_epoch_promotes() {
        let mut l = OnlineLearner::new(tiny());
        churn(&mut l, 0, 64, 64); // 4 KiB: two epochs
        assert!(l.predicts(0), "site should be promoted");
        assert!(l.stats().promotions >= 1);
        assert!(l.stats().predicted_allocs > 0, "later allocs predicted");
    }

    #[test]
    fn long_lifetime_blocks_promotion() {
        let mut l = OnlineLearner::new(tiny());
        // Every object outlives the threshold: never promoted.
        for _ in 0..64 {
            let birth = l.clock();
            let p = l.record_alloc(0, 64);
            // Age the object past the threshold with other traffic.
            churn(&mut l, 1, 64, 32);
            l.record_free(0, 64, birth, p);
        }
        assert!(!l.predicts(0));
        assert_eq!(l.stats().mispredictions, 0);
    }

    #[test]
    fn misprediction_demotes_immediately() {
        let mut l = OnlineLearner::new(tiny());
        churn(&mut l, 0, 64, 64);
        assert!(l.predicts(0));
        let birth = l.clock();
        let p = l.record_alloc(0, 64);
        assert!(p);
        churn(&mut l, 1, 64, 32); // age it past the threshold
        l.record_free(0, 64, birth, p);
        assert!(!l.predicts(0), "demotion must not wait for epoch end");
        let s = l.stats();
        assert_eq!(s.mispredictions, 1);
        assert!(s.demotions >= 1);
        assert_eq!(s.error_bytes, 64);
    }

    #[test]
    fn demoted_site_requalifies_after_k_clean_epochs() {
        let cfg = tiny();
        let mut l = OnlineLearner::new(cfg);
        churn(&mut l, 0, 64, 64);
        assert!(l.predicts(0));
        l.note_pinned(0, 64); // demote
        assert!(!l.predicts(0));
        let demoted_at = l.epochs();
        // Clean churn until requalified; must take >= requalify_epochs.
        let mut requalified_at = None;
        for _ in 0..20_000 {
            churn(&mut l, 0, 64, 1);
            if l.predicts(0) {
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
        churn(&mut l, 0, 64, 64);
        assert!(l.predicts(0));
        let gen = l.generation();
        l.note_pinned(0, 128);
        assert!(!l.predicts(0));
        assert_eq!(l.stats().mispredictions, 1);
        assert_eq!(l.stats().error_bytes, 128);
        assert!(l.generation() > gen);
    }

    #[test]
    fn generation_tracks_the_short_set() {
        let mut l = OnlineLearner::new(tiny());
        let g0 = l.generation();
        churn(&mut l, 0, 64, 64);
        assert!(l.generation() > g0);
        assert_eq!(l.stats().short_sites, 1);
        let g1 = l.generation();
        l.note_pinned(0, 64);
        assert!(l.generation() > g1);
        assert_eq!(l.stats().short_sites, 0);
    }

    #[test]
    fn any_call_creates_the_next_sites_row() {
        let mut l = OnlineLearner::new(tiny());
        l.record_free(0, 8, 0, false);
        l.note_pinned(1, 8);
        l.record_alloc(2, 8);
        assert_eq!(l.stats().sites, 3);
        l.record_alloc(1, 8);
        assert_eq!(l.stats().sites, 3, "a seen site keeps its row");
    }

    #[test]
    #[should_panic(expected = "skips past")]
    fn a_site_id_that_skips_ahead_panics() {
        let mut l = OnlineLearner::new(tiny());
        l.record_alloc(1, 8);
    }

    #[test]
    fn roll_epoch_reschedules() {
        let mut l = OnlineLearner::new(tiny());
        churn(&mut l, 0, 64, 4);
        let e = l.epochs();
        l.roll_epoch();
        assert_eq!(l.epochs(), e + 1);
        // The manual roll pushed the next automatic roll out.
        churn(&mut l, 0, 64, 1);
        assert_eq!(l.epochs(), e + 1);
    }

    #[test]
    fn one_free_makes_a_clean_epoch() {
        let mut l = OnlineLearner::new(tiny());
        let birth = l.clock();
        let p = l.record_alloc(0, 64);
        l.record_free(0, 64, birth, p);
        l.roll_epoch();
        assert!(l.predicts(0));
    }

    /// The cost model, pinned without a stopwatch: an epoch roll
    /// visits the rows that had activity in that epoch and no others.
    #[test]
    fn epoch_rolls_visit_only_active_rows() {
        const IDLE: u32 = 50_000;
        const EPOCHS: u64 = 10_000;
        // Zero-byte objects hold the clock still: every roll below is
        // one of the explicit ones.
        let mut l = OnlineLearner::new(tiny());
        for site in 0..IDLE {
            l.record_alloc(site, 0);
        }
        l.roll_epoch();
        assert_eq!(l.row_visits, 0, "allocations alone are not activity");
        let mut active_pairs = 0;
        for epoch in 0..EPOCHS {
            // Three frees and one pin in one epoch still list the site
            // once; an allocation lists nothing.
            if epoch % 2 == 0 {
                churn(&mut l, IDLE, 0, 3);
                l.note_pinned(IDLE, 0);
                active_pairs += 1;
            }
            l.record_alloc(epoch as u32 % IDLE, 0);
            l.roll_epoch();
        }
        assert_eq!(l.row_visits, active_pairs);
        assert_eq!(l.stats().sites, u64::from(IDLE) + 1);
        assert_eq!(l.stats().epochs, 1 + EPOCHS);
    }
}
