//! The replay API of an earlier release, kept only because the frozen
//! benchmark (`benchmark/`, its own workspace) links these names and
//! must build unchanged. Each item is a thin adapter onto the one
//! engine, and its doc names the `benchmark/src/layers.rs` line that
//! links it (all are imported at lines 21–25). The crates use
//! [`replay`] alone: CI fails on these names outside this file,
//! `benchmark/` and the test pinning them to [`replay`].

use crate::predict::{NoPrediction, Online, SiteCursor};
use crate::replay::{missing, replay, run, Replayed};
use crate::{ArenaAllocator, ArenaConfig, BsdMalloc, FirstFit, ReplayObs, ReplayPlan};
use crate::{ReplayReport, ReplayStreamError};
use lifepred_adaptive::{EpochConfig, LearnerStats};
use lifepred_core::{ShortLivedSet, SiteConfig};
use lifepred_trace::{ChunkSource, Trace};
use std::collections::HashMap;
use std::convert::Infallible;

/// Arena geometry for the adapters below; `layers.rs:315` and
/// `layers.rs:525` build the default.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayConfig {
    /// Arena geometry for [`replay_arena`] and [`replay_arena_online`].
    pub arena: ArenaConfig,
}

/// Identity of the traced run for the `_chunks` adapters;
/// `layers.rs:193` builds one from a mapped trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayMeta {
    /// Program name from the trace.
    pub program: String,
    /// Function calls in the original execution.
    pub function_calls: u64,
}

/// An online arena replay's report and its learner's counters;
/// `layers.rs:467–470` read both fields.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineReplayReport {
    /// Allocator-level results (allocator name `arena-online`).
    pub replay: ReplayReport,
    /// Counters of the self-training predictor.
    pub learner: LearnerStats,
}

impl OnlineReplayReport {
    fn of((replay, learner): Replayed) -> OnlineReplayReport {
        let learner = learner.expect("an online replay has a learner");
        OnlineReplayReport { replay, learner }
    }
}

fn meta(meta: &ReplayMeta) -> (&str, u64) {
    (&meta.program, meta.function_calls)
}

/// [`ReplayPlan::FirstFit`] over `trace`; `layers.rs:585`.
pub fn replay_firstfit(trace: &Trace, _config: &ReplayConfig) -> ReplayReport {
    replay(trace, &ReplayPlan::FirstFit, None)
        .expect("valid trace")
        .0
}

/// [`ReplayPlan::Bsd`] over `trace`; `layers.rs:586`.
pub fn replay_bsd(trace: &Trace, _config: &ReplayConfig) -> ReplayReport {
    replay(trace, &ReplayPlan::Bsd, None)
        .expect("valid trace")
        .0
}

/// [`ReplayPlan::Arena`] over `trace`; `layers.rs:587`.
pub fn replay_arena(trace: &Trace, db: &ShortLivedSet, config: &ReplayConfig) -> ReplayReport {
    let arena = config.arena;
    let plan = ReplayPlan::Arena { db, arena };
    replay(trace, &plan, None).expect("valid trace").0
}

/// [`ReplayPlan::ArenaOnline`] over `trace`; `layers.rs:561`.
pub fn replay_arena_online(
    trace: &Trace,
    sites: &SiteConfig,
    epoch: &EpochConfig,
    config: &ReplayConfig,
) -> OnlineReplayReport {
    let plan = ReplayPlan::ArenaOnline {
        sites: *sites,
        epoch: *epoch,
        arena: config.arena,
    };
    OnlineReplayReport::of(replay(trace, &plan, None).expect("valid trace"))
}

/// `db`'s verdict for each record of `trace`, in birth order, asking
/// `db` once per site; `layers.rs:491`.
pub fn prediction_bitmap(trace: &Trace, db: &ShortLivedSet) -> Vec<bool> {
    let mut sites = SiteCursor::new(trace.into(), *db.config());
    let mut verdicts = Vec::new();
    let mut predicts = |record| sites.verdict(record, &mut verdicts, |site| db.predicts(site));
    let bitmap: Result<_, ReplayStreamError<Infallible>> =
        (0..trace.records().len()).map(&mut predicts).collect();
    bitmap.expect("every index of a trace's records has a record")
}

/// First-fit over `source`; `layers.rs:318`.
pub fn replay_firstfit_chunks<S: ChunkSource>(
    m: &ReplayMeta,
    source: S,
    _config: &ReplayConfig,
) -> Result<ReplayReport, ReplayStreamError<S::Error>> {
    let heap = FirstFit::new();
    run(meta(m), source, "first-fit", heap, NoPrediction, None).map(|r| r.0)
}

/// First-fit over `source`, watched by `obs`; `layers.rs:326`.
pub fn replay_firstfit_chunks_observed<S: ChunkSource>(
    m: &ReplayMeta,
    source: S,
    _config: &ReplayConfig,
    obs: &ReplayObs<'_>,
) -> Result<ReplayReport, ReplayStreamError<S::Error>> {
    let heap = FirstFit::new();
    run(meta(m), source, "first-fit", heap, NoPrediction, Some(obs)).map(|r| r.0)
}

/// BSD over `source`; `layers.rs:345`.
pub fn replay_bsd_chunks<S: ChunkSource>(
    m: &ReplayMeta,
    source: S,
    _config: &ReplayConfig,
) -> Result<ReplayReport, ReplayStreamError<S::Error>> {
    run(meta(m), source, "bsd", BsdMalloc::new(), NoPrediction, None).map(|r| r.0)
}

/// The arena allocator over `source`, `predicted[record]` deciding each
/// object; `layers.rs:404` and `layers.rs:478`.
pub fn replay_arena_chunks<S: ChunkSource>(
    m: &ReplayMeta,
    source: S,
    predicted: &[bool],
    &ReplayConfig { arena }: &ReplayConfig,
) -> Result<ReplayReport, ReplayStreamError<S::Error>> {
    let predicts = |record| {
        let short = predicted.get(record).copied();
        short.ok_or_else(|| missing(record, "prediction", predicted.len()))
    };
    let heap = ArenaAllocator::new(arena);
    run(meta(m), source, "arena", heap, predicts, None).map(|r| r.0)
}

/// The online arena replay over `source`, the fingerprint `sites[record]`
/// keying each object; `layers.rs:458`. Fingerprints are numbered in
/// first-seen order into the dense site ids the learner takes.
pub fn replay_arena_online_chunks<S: ChunkSource>(
    m: &ReplayMeta,
    source: S,
    sites: &[u64],
    &epoch: &EpochConfig,
    &ReplayConfig { arena }: &ReplayConfig,
) -> Result<OnlineReplayReport, ReplayStreamError<S::Error>> {
    let mut ids = HashMap::new();
    let site_id = |record: usize| {
        let fingerprint =
            (sites.get(record)).ok_or_else(|| missing(record, "site fingerprint", sites.len()))?;
        let next = ids.len() as u32;
        Ok(*ids.entry(*fingerprint).or_insert(next))
    };
    let (heap, online) = (ArenaAllocator::new(arena), Online::new(site_id, epoch));
    run(meta(m), source, "arena-online", heap, online, None).map(OnlineReplayReport::of)
}
