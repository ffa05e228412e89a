//! Trace-driven simulation: replaying traces through the allocators.
//!
//! The paper evaluates lifetime prediction by one procedure —
//! trace-driven simulation with the allocator and the predictor as the
//! only variables — and so does this module: [`replay`] pulls
//! structure-of-arrays event batches from any [`ChunkSource`] (an
//! in-memory [`Trace`], the mapped chunk decoder of an `.lpt` file) and
//! runs them through the one loop, `drive`, with the backend a
//! [`ReplayPlan`] names. A new allocator is one `SimHeap` impl, a new
//! predictor one `Predict` impl; watching a replay (`Some(obs)`) swaps
//! the loop's `Observe` parameter and nothing else, so observed and
//! unobserved replays return identical reports.
//!
//! [`replay_firstfit`], [`replay_bsd`], [`replay_arena`] and
//! [`replay_arena_online`] are conveniences over [`replay`] for a
//! materialized [`Trace`].

use crate::arena::{ArenaAllocator, ArenaConfig};
use crate::bsd::BsdMalloc;
use crate::counts::OpCounts;
use crate::firstfit::FirstFit;
use crate::index::IndexStats;
use crate::live::{LiveObj, LiveTable};
use crate::obs::{ObsCtx, Observe, ReplayObs, Unobserved};
use crate::predict::{NoPrediction, Online, Predict};
use crate::Addr;
use lifepred_adaptive::{EpochConfig, LearnerStats};
use lifepred_core::{map_sites, ShortLivedSet, SiteConfig, SiteKey};
use lifepred_trace::{
    ChunkEvent, ChunkSource, EventChunk, Trace, TraceChunks, POOLED_CHUNK_EVENTS,
};
use std::fmt;

/// Configuration of the [`Trace`]-based convenience replays.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayConfig {
    /// Arena geometry for [`replay_arena`] and [`replay_arena_online`].
    pub arena: ArenaConfig,
}

/// Which simulated allocator a [`replay`] runs, and where its lifetime
/// predictions come from.
///
/// Per-object inputs are indexed by `record`, the object's birth-order
/// index — the index its
/// [`AllocationRecord`](lifepred_trace::AllocationRecord) has in
/// [`Trace::records`].
#[derive(Debug, Clone, Copy)]
pub enum ReplayPlan<'a> {
    /// Knuth's first-fit (the paper's baseline for Table 8); predicts
    /// nothing.
    FirstFit,
    /// The 4.2BSD bucket allocator (the Table 9 CPU baseline);
    /// predicts nothing.
    Bsd,
    /// The lifetime-predicting arena allocator with a frozen,
    /// offline-trained prediction per object — the simulation behind
    /// Tables 7 and 8.
    Arena {
        /// `predicted[record]` says whether the predictor marked that
        /// object short-lived (the hash-table lookup the deployed
        /// allocator would perform at each allocation); see
        /// [`prediction_bitmap`].
        predicted: &'a [bool],
        /// Arena-area geometry.
        arena: ArenaConfig,
    },
    /// The arena allocator with **no offline training**: an
    /// [`OnlineLearner`](lifepred_adaptive::OnlineLearner) decides
    /// every prediction as the trace runs and keeps correcting itself
    /// from the lifetimes it observes.
    ///
    /// A predicted-short object still live after `epoch.threshold`
    /// bytes of allocation pins its arena; the replay reports it to the
    /// learner at that moment (an aging queue, mirroring the runtime
    /// allocator's epoch scan), demoting its site long before the free
    /// arrives.
    ArenaOnline {
        /// `sites[record]` is the fingerprint of that object's
        /// allocation site; see [`site_fingerprints`].
        sites: &'a [u64],
        /// The learner's thresholds and epoch length.
        epoch: EpochConfig,
        /// Arena-area geometry.
        arena: ArenaConfig,
    },
}

/// Identity of the traced run, carried into the [`ReplayReport`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayMeta {
    /// Program name from the trace.
    pub program: String,
    /// Function calls in the original execution (amortizes call-chain
    /// encryption cost in Table 9).
    pub function_calls: u64,
}

impl ReplayMeta {
    /// The metadata of a materialized trace.
    pub fn of(trace: &Trace) -> ReplayMeta {
        ReplayMeta {
            program: trace.name().to_owned(),
            function_calls: trace.stats().function_calls,
        }
    }
}

/// Why a replay stopped early.
#[derive(Debug)]
pub enum ReplayStreamError<E> {
    /// The event source itself failed (e.g. a corrupt trace file).
    Source(E),
    /// The events decoded fine but do not form a valid alloc/free
    /// sequence.
    Corrupt(String),
}

impl<E: fmt::Display> fmt::Display for ReplayStreamError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayStreamError::Source(e) => write!(f, "event source failed: {e}"),
            ReplayStreamError::Corrupt(detail) => write!(f, "invalid event stream: {detail}"),
        }
    }
}

impl<E: fmt::Debug + fmt::Display> std::error::Error for ReplayStreamError<E> {}

/// An event sequence that is not a valid alloc/free history; becomes
/// [`ReplayStreamError::Corrupt`] whatever the source's error type.
#[derive(Debug)]
pub(crate) struct Corrupt(pub(crate) String);

impl<E> From<Corrupt> for ReplayStreamError<E> {
    fn from(corrupt: Corrupt) -> Self {
        ReplayStreamError::Corrupt(corrupt.0)
    }
}

/// Results of replaying one trace through one allocator — the raw
/// material for Tables 7, 8 and 9.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// Program name from the trace.
    pub program: String,
    /// Which allocator produced this report.
    pub allocator: String,
    /// Allocations replayed.
    pub total_allocs: u64,
    /// Bytes allocated.
    pub total_bytes: u64,
    /// Allocations served from the arena area (zero for the
    /// non-predicting allocators).
    pub arena_allocs: u64,
    /// Bytes served from the arena area.
    pub arena_bytes: u64,
    /// High-water heap size, arena area included where applicable.
    pub max_heap_bytes: u64,
    /// Operation counters for the cost model.
    pub counts: OpCounts,
    /// Function calls in the original execution (amortizes call-chain
    /// encryption cost in Table 9).
    pub function_calls: u64,
}

impl ReplayReport {
    /// Percentage of allocations that landed in arenas (Table 7).
    pub fn arena_alloc_pct(&self) -> f64 {
        pct(self.arena_allocs, self.total_allocs)
    }

    /// Percentage of bytes that landed in arenas (Table 7).
    pub fn arena_byte_pct(&self) -> f64 {
        pct(self.arena_bytes, self.total_bytes)
    }

    /// Percentage of allocations served by the general heap.
    pub fn non_arena_alloc_pct(&self) -> f64 {
        100.0 - self.arena_alloc_pct()
    }

    /// Percentage of bytes served by the general heap.
    pub fn non_arena_byte_pct(&self) -> f64 {
        100.0 - self.arena_byte_pct()
    }
}

pub(crate) fn pct(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        100.0 * num as f64 / den as f64
    }
}

/// A simulated allocator the replay loop can drive.
trait SimHeap {
    /// Allocates `size` bytes. `short` is the predictor's verdict; the
    /// non-predicting allocators ignore it.
    fn place(&mut self, size: u32, short: bool) -> Addr;
    /// Frees a live allocation.
    fn release(&mut self, addr: Addr);
    /// Whether `addr` lies in an arena area.
    fn in_arena(&self, _addr: Addr) -> bool {
        false
    }
    fn high_water_bytes(&self) -> u64;
    fn op_counts(&self) -> OpCounts;
    /// Work counters of the first-fit free-block tree inside, if there is
    /// one (the BSD heap has none).
    fn index_stats(&self) -> IndexStats {
        IndexStats::default()
    }
}

impl SimHeap for FirstFit {
    fn place(&mut self, size: u32, _short: bool) -> Addr {
        self.alloc(size)
    }
    fn release(&mut self, addr: Addr) {
        self.free(addr);
    }
    fn high_water_bytes(&self) -> u64 {
        self.max_heap_bytes()
    }
    fn op_counts(&self) -> OpCounts {
        *self.counts()
    }
    fn index_stats(&self) -> IndexStats {
        FirstFit::index_stats(self)
    }
}

impl SimHeap for BsdMalloc {
    fn place(&mut self, size: u32, _short: bool) -> Addr {
        self.alloc(size)
    }
    fn release(&mut self, addr: Addr) {
        self.free(addr);
    }
    fn high_water_bytes(&self) -> u64 {
        self.max_heap_bytes()
    }
    fn op_counts(&self) -> OpCounts {
        *self.counts()
    }
}

impl SimHeap for ArenaAllocator {
    fn place(&mut self, size: u32, short: bool) -> Addr {
        self.alloc(size, short)
    }
    fn release(&mut self, addr: Addr) {
        self.free(addr);
    }
    fn in_arena(&self, addr: Addr) -> bool {
        self.is_arena_addr(addr)
    }
    fn high_water_bytes(&self) -> u64 {
        self.max_heap_bytes()
    }
    fn op_counts(&self) -> OpCounts {
        self.counts()
    }
    fn index_stats(&self) -> IndexStats {
        self.general_heap().index_stats()
    }
}

/// What a replay returns: the allocator-level report, plus the
/// learner's counters when the plan had a learner in the loop.
pub(crate) type Replayed = (ReplayReport, Option<LearnerStats>);

/// Replays the event batches of `source` through the allocator `plan`
/// names. With `Some(obs)` every event is additionally recorded into
/// the `lifepred_sim_*` metrics of `obs` — including, for
/// [`ReplayPlan::ArenaOnline`], one `lifepred_sim_epochs` timeline
/// sample per learner epoch tick; the returned report is the same
/// either way.
///
/// # Errors
///
/// [`ReplayStreamError::Source`] if the source fails (the batches
/// before the failure are replayed first); [`ReplayStreamError::Corrupt`]
/// on an allocation out of birth order, a free of an object that is not
/// live, or an allocation whose record index has no entry in the plan's
/// `predicted`/`sites`.
pub fn replay<S: ChunkSource>(
    meta: &ReplayMeta,
    source: S,
    plan: &ReplayPlan<'_>,
    obs: Option<&ReplayObs<'_>>,
) -> Result<Replayed, ReplayStreamError<S::Error>> {
    match obs {
        Some(obs) => replay_with(meta, source, plan, ObsCtx::new(obs)),
        None => replay_with(meta, source, plan, Unobserved),
    }
}

fn replay_with<S: ChunkSource, O: Observe>(
    meta: &ReplayMeta,
    source: S,
    plan: &ReplayPlan<'_>,
    observer: O,
) -> Result<Replayed, ReplayStreamError<S::Error>> {
    match *plan {
        ReplayPlan::FirstFit => {
            let heap = FirstFit::new();
            drive(meta, source, "first-fit", heap, NoPrediction, observer)
        }
        ReplayPlan::Bsd => {
            let heap = BsdMalloc::new();
            drive(meta, source, "bsd", heap, NoPrediction, observer)
        }
        ReplayPlan::Arena { predicted, arena } => {
            let heap = ArenaAllocator::new(arena);
            drive(meta, source, "arena", heap, predicted, observer)
        }
        ReplayPlan::ArenaOnline {
            sites,
            epoch,
            arena,
        } => {
            let heap = ArenaAllocator::new(arena);
            let online = Online::new(sites, epoch);
            drive(meta, source, "arena-online", heap, online, observer)
        }
    }
}

/// The replay loop: pull a batch, predict, place or free, keep each
/// live object's entry in the [`LiveTable`], count.
fn drive<S, H, P, O>(
    meta: &ReplayMeta,
    mut source: S,
    allocator: &str,
    mut heap: H,
    mut predictor: P,
    mut observer: O,
) -> Result<Replayed, ReplayStreamError<S::Error>>
where
    S: ChunkSource,
    H: SimHeap,
    P: Predict<H>,
    O: Observe,
{
    let mut live = LiveTable::default();
    let (mut total_allocs, mut total_bytes) = (0u64, 0u64);
    let (mut arena_allocs, mut arena_bytes) = (0u64, 0u64);
    let mut chunk = EventChunk::with_capacity(POOLED_CHUNK_EVENTS);
    let mut refills = 0u64;
    loop {
        match source.next_chunk(&mut chunk) {
            Ok(true) => refills += 1,
            Ok(false) => break,
            Err(e) => return Err(ReplayStreamError::Source(e)),
        }
        for event in chunk.events() {
            let stamp = O::stamp();
            match event {
                ChunkEvent::Alloc { record, size } => {
                    live.expect_birth(record)?;
                    let birth = total_bytes;
                    total_allocs += 1;
                    total_bytes += u64::from(size);
                    let (short, tag) = predictor.on_alloc(record, size)?;
                    let addr = heap.place(size, short);
                    let in_arena = heap.in_arena(addr);
                    if in_arena {
                        arena_allocs += 1;
                        arena_bytes += u64::from(size);
                    }
                    live.born(LiveObj {
                        addr,
                        birth,
                        size,
                        tag,
                    });
                    predictor.placed(size, in_arena, &mut live);
                    observer.on_alloc(size, in_arena, stamp);
                    if O::ACTIVE {
                        if let Some(sample) = predictor.epoch_sample(&heap) {
                            observer.on_epoch(sample);
                        }
                    }
                }
                ChunkEvent::Free { record } => {
                    let dead = live.died(record)?;
                    heap.release(dead.addr);
                    predictor.on_free(&dead, heap.in_arena(dead.addr));
                    observer.on_free(&dead, stamp);
                }
            }
        }
    }
    let counts = heap.op_counts();
    if O::ACTIVE {
        observer.flush(heap.index_stats(), counts.frees_invalid, refills);
    }
    let report = ReplayReport {
        program: meta.program.clone(),
        allocator: allocator.to_owned(),
        total_allocs,
        total_bytes,
        arena_allocs,
        arena_bytes,
        max_heap_bytes: heap.high_water_bytes(),
        counts,
        function_calls: meta.function_calls,
    };
    Ok((report, predictor.learner_stats()))
}

/// Results of an **online** arena replay: the allocator-level numbers
/// plus the counters of the learner that made every prediction while
/// the trace was running.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineReplayReport {
    /// Allocator-level results (allocator name `arena-online`).
    pub replay: ReplayReport,
    /// Counters of the self-training predictor.
    pub learner: LearnerStats,
}

impl OnlineReplayReport {
    fn of((replay, learner): Replayed) -> OnlineReplayReport {
        OnlineReplayReport {
            replay,
            learner: learner.expect("an online replay has a learner"),
        }
    }
}

/// [`replay`] for a materialized trace, where the source is infallible
/// and a malformed sequence is a caller bug.
fn replay_trace(trace: &Trace, plan: &ReplayPlan<'_>) -> Replayed {
    match replay(&ReplayMeta::of(trace), TraceChunks::new(trace), plan, None) {
        Ok(replayed) => replayed,
        Err(ReplayStreamError::Source(e)) => match e {},
        Err(ReplayStreamError::Corrupt(detail)) => panic!("{detail}"),
    }
}

/// Replays `trace` through the first-fit allocator (the paper's
/// baseline for Table 8).
pub fn replay_firstfit(trace: &Trace, _config: &ReplayConfig) -> ReplayReport {
    replay_trace(trace, &ReplayPlan::FirstFit).0
}

/// Replays `trace` through the BSD bucket allocator (the Table 9 CPU
/// baseline).
pub fn replay_bsd(trace: &Trace, _config: &ReplayConfig) -> ReplayReport {
    replay_trace(trace, &ReplayPlan::Bsd).0
}

/// Computes the per-record prediction bitmap [`ReplayPlan::Arena`]
/// consults: `result[i]` is the database's verdict for
/// `trace.records()[i]`.
pub fn prediction_bitmap(trace: &Trace, db: &ShortLivedSet) -> Vec<bool> {
    map_sites(trace.into(), *db.config(), |site| db.predicts(site)).unwrap_or_else(|e| match e {})
}

/// Replays `trace` through the lifetime-predicting arena allocator,
/// consulting the trained database `db` for every allocation — the
/// simulation behind Tables 7 and 8.
pub fn replay_arena(trace: &Trace, db: &ShortLivedSet, config: &ReplayConfig) -> ReplayReport {
    let plan = ReplayPlan::Arena {
        predicted: &prediction_bitmap(trace, db),
        arena: config.arena,
    };
    replay_trace(trace, &plan).0
}

/// Computes the per-record site fingerprints [`ReplayPlan::ArenaOnline`]
/// consults: `result[i]` identifies `trace.records()[i]`'s site under
/// `sites` as a stable `u64`
/// ([`SiteKey::fingerprint`](lifepred_core::SiteKey::fingerprint)).
pub fn site_fingerprints(trace: &Trace, sites: &SiteConfig) -> Vec<u64> {
    map_sites(trace.into(), *sites, SiteKey::fingerprint).unwrap_or_else(|e| match e {})
}

/// Replays `trace` through the arena allocator with the online learner
/// deciding (and correcting) every prediction — no offline training
/// run, no frozen database.
pub fn replay_arena_online(
    trace: &Trace,
    sites: &SiteConfig,
    epoch: &EpochConfig,
    config: &ReplayConfig,
) -> OnlineReplayReport {
    let plan = ReplayPlan::ArenaOnline {
        sites: &site_fingerprints(trace, sites),
        epoch: *epoch,
        arena: config.arena,
    };
    OnlineReplayReport::of(replay_trace(trace, &plan))
}

// The five functions below are linked only by the frozen
// `benchmark/src/layers.rs`, under the names and signatures they had
// before `replay` existed. No workspace crate may call them; a later
// `benchmark` PR moves that file onto `replay` and deletes them.

#[doc(hidden)]
pub fn replay_firstfit_chunks<S: ChunkSource>(
    meta: &ReplayMeta,
    source: S,
    _config: &ReplayConfig,
) -> Result<ReplayReport, ReplayStreamError<S::Error>> {
    replay(meta, source, &ReplayPlan::FirstFit, None).map(|r| r.0)
}

#[doc(hidden)]
pub fn replay_firstfit_chunks_observed<S: ChunkSource>(
    meta: &ReplayMeta,
    source: S,
    _config: &ReplayConfig,
    obs: &ReplayObs<'_>,
) -> Result<ReplayReport, ReplayStreamError<S::Error>> {
    replay(meta, source, &ReplayPlan::FirstFit, Some(obs)).map(|r| r.0)
}

#[doc(hidden)]
pub fn replay_bsd_chunks<S: ChunkSource>(
    meta: &ReplayMeta,
    source: S,
    _config: &ReplayConfig,
) -> Result<ReplayReport, ReplayStreamError<S::Error>> {
    replay(meta, source, &ReplayPlan::Bsd, None).map(|r| r.0)
}

#[doc(hidden)]
pub fn replay_arena_chunks<S: ChunkSource>(
    meta: &ReplayMeta,
    source: S,
    predicted: &[bool],
    &ReplayConfig { arena }: &ReplayConfig,
) -> Result<ReplayReport, ReplayStreamError<S::Error>> {
    replay(meta, source, &ReplayPlan::Arena { predicted, arena }, None).map(|r| r.0)
}

#[doc(hidden)]
pub fn replay_arena_online_chunks<S: ChunkSource>(
    meta: &ReplayMeta,
    source: S,
    sites: &[u64],
    &epoch: &EpochConfig,
    &ReplayConfig { arena }: &ReplayConfig,
) -> Result<OnlineReplayReport, ReplayStreamError<S::Error>> {
    let plan = ReplayPlan::ArenaOnline {
        sites,
        epoch,
        arena,
    };
    replay(meta, source, &plan, None).map(OnlineReplayReport::of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifepred_core::{train, Profile, SiteConfig, TrainConfig, DEFAULT_THRESHOLD};
    use lifepred_trace::TraceSession;

    /// A fallible [`ChunkSource`] double: hands out scripted batches,
    /// then fails if the script ends in an error.
    struct Scripted(std::vec::IntoIter<Result<Vec<ChunkEvent>, &'static str>>);

    fn scripted(batches: Vec<Result<Vec<ChunkEvent>, &'static str>>) -> Scripted {
        Scripted(batches.into_iter())
    }

    impl ChunkSource for Scripted {
        type Error = &'static str;

        fn next_chunk(&mut self, chunk: &mut EventChunk) -> Result<bool, &'static str> {
            chunk.clear();
            let Some(batch) = self.0.next() else {
                return Ok(false);
            };
            for event in batch? {
                match event {
                    ChunkEvent::Alloc { record, size } => chunk.push_alloc(record as u64, size),
                    ChunkEvent::Free { record } => chunk.push_free(record as u64),
                }
            }
            Ok(true)
        }
    }

    const ALLOC_0: ChunkEvent = ChunkEvent::Alloc { record: 0, size: 8 };

    /// Mostly short-lived allocations from one site plus a set of
    /// long-lived allocations from another.
    fn workload() -> Trace {
        let s = TraceSession::new("replay-test");
        let mut kept = Vec::new();
        {
            let _g = s.enter("long_site");
            for _ in 0..20 {
                kept.push(s.alloc(128));
            }
        }
        {
            let _g = s.enter("short_site");
            for _ in 0..2000 {
                let a = s.alloc(48);
                let b = s.alloc(16);
                s.free(a);
                s.free(b);
            }
        }
        for id in kept {
            s.free(id);
        }
        s.finish()
    }

    fn trained(trace: &Trace) -> ShortLivedSet {
        let p = Profile::build(trace, &SiteConfig::default(), DEFAULT_THRESHOLD);
        train(&p, &TrainConfig::default())
    }

    #[test]
    fn firstfit_replay_counts_everything() {
        let t = workload();
        let r = replay_firstfit(&t, &ReplayConfig::default());
        assert_eq!(r.total_allocs, t.stats().total_objects);
        assert_eq!(r.counts.allocs, r.total_allocs);
        assert_eq!(r.counts.frees, r.total_allocs); // everything freed
        assert_eq!(r.arena_allocs, 0);
        assert!(r.max_heap_bytes > 0);
    }

    #[test]
    fn arena_replay_puts_short_objects_in_arenas() {
        let t = workload();
        let db = trained(&t);
        let r = replay_arena(&t, &db, &ReplayConfig::default());
        // The 4000 short-lived allocations dominate.
        assert!(
            r.arena_alloc_pct() > 95.0,
            "arena alloc pct {}",
            r.arena_alloc_pct()
        );
        assert!(r.arena_byte_pct() > 90.0);
        assert!(r.counts.arena_resets > 0, "arenas must recycle");
    }

    #[test]
    fn empty_database_degenerates_to_firstfit_heap() {
        let t = workload();
        let db = ShortLivedSet::empty(SiteConfig::default(), DEFAULT_THRESHOLD);
        let ra = replay_arena(&t, &db, &ReplayConfig::default());
        let rf = replay_firstfit(&t, &ReplayConfig::default());
        assert_eq!(ra.arena_allocs, 0);
        // Same general-heap demands, plus the 64 KB arena area.
        assert_eq!(
            ra.max_heap_bytes,
            rf.max_heap_bytes + ReplayConfig::default().arena.total_bytes()
        );
    }

    #[test]
    fn arena_heap_can_beat_firstfit_for_large_heaps() {
        // Interleave short-lived objects with long-lived ones so the
        // first-fit heap fragments, then compare high-water marks.
        let s = TraceSession::new("frag");
        let mut kept = Vec::new();
        {
            let _g = s.enter("mix");
            for i in 0..3000 {
                let short = s.alloc(256);
                if i % 10 == 0 {
                    let _g2 = s.enter("keeper");
                    kept.push(s.alloc(64));
                }
                s.free(short);
            }
        }
        for id in kept {
            s.free(id);
        }
        let t = s.finish();
        let db = trained(&t);
        let ra = replay_arena(&t, &db, &ReplayConfig::default());
        let rf = replay_firstfit(&t, &ReplayConfig::default());
        // The short-lived objects all fit in the arena area, so the
        // general heap only holds the long-lived survivors.
        assert!(ra.counts.arena_allocs > 0);
        assert!(
            ra.max_heap_bytes <= rf.max_heap_bytes + ReplayConfig::default().arena.total_bytes()
        );
    }

    #[test]
    fn bsd_replay_reuses_buckets() {
        let t = workload();
        let r = replay_bsd(&t, &ReplayConfig::default());
        assert!(r.counts.bucket_pops > r.counts.page_carves);
    }

    #[test]
    fn percentages_are_consistent() {
        let t = workload();
        let db = trained(&t);
        let r = replay_arena(&t, &db, &ReplayConfig::default());
        assert!((r.arena_alloc_pct() + r.non_arena_alloc_pct() - 100.0).abs() < 1e-9);
        assert!((r.arena_byte_pct() + r.non_arena_byte_pct() - 100.0).abs() < 1e-9);
    }

    fn small_epoch() -> EpochConfig {
        EpochConfig {
            threshold: 4096,
            epoch_bytes: 8192,
            ..EpochConfig::default()
        }
    }

    #[test]
    fn online_replay_learns_short_sites_mid_trace() {
        let t = workload();
        let r = replay_arena_online(
            &t,
            &SiteConfig::default(),
            &small_epoch(),
            &ReplayConfig::default(),
        );
        assert_eq!(r.replay.allocator, "arena-online");
        assert_eq!(r.replay.total_allocs, t.stats().total_objects);
        // The short-lived site is learned after a warmup and routed to
        // arenas from then on.
        assert!(r.learner.promotions >= 1, "{:?}", r.learner);
        assert!(
            r.replay.arena_alloc_pct() > 50.0,
            "arena alloc pct {}",
            r.replay.arena_alloc_pct()
        );
        // Warmup means online coverage trails the offline oracle.
        let offline = replay_arena(&t, &trained(&t), &ReplayConfig::default());
        assert!(r.replay.arena_allocs <= offline.arena_allocs);
    }

    #[test]
    fn online_replay_demotes_drifting_site() {
        // A site that is short-lived for a while, then starts holding
        // objects across the threshold: the learner must demote it.
        let s = TraceSession::new("drift");
        {
            let _g = s.enter("drifter");
            for _ in 0..2000 {
                let a = s.alloc(64);
                s.free(a);
            }
        }
        let mut kept = Vec::new();
        {
            let _g = s.enter("drifter");
            for _ in 0..40 {
                kept.push(s.alloc(64));
                // Unrelated traffic ages the kept objects.
                let _g2 = s.enter("noise");
                for _ in 0..8 {
                    let n = s.alloc(512);
                    s.free(n);
                }
            }
        }
        for id in kept {
            s.free(id);
        }
        let t = s.finish();
        let r = replay_arena_online(
            &t,
            &SiteConfig::default(),
            &small_epoch(),
            &ReplayConfig::default(),
        );
        assert!(r.learner.promotions >= 1, "{:?}", r.learner);
        assert!(r.learner.mispredictions >= 1, "{:?}", r.learner);
        assert!(r.learner.demotions >= 1, "{:?}", r.learner);
    }

    #[test]
    fn observed_replay_matches_unobserved_and_fills_metrics() {
        let t = workload();
        let meta = ReplayMeta::of(&t);
        let cfg = ReplayConfig::default();
        let registry = lifepred_obs::Registry::new();
        let obs = ReplayObs::register(&registry);
        let db = trained(&t);
        let plan = ReplayPlan::Arena {
            predicted: &prediction_bitmap(&t, &db),
            arena: cfg.arena,
        };
        let (observed, learner) =
            replay(&meta, TraceChunks::new(&t), &plan, Some(&obs)).expect("valid");
        assert_eq!(learner, None, "a frozen bitmap has no learner");
        assert_eq!(
            observed,
            replay_arena(&t, &db, &cfg),
            "obs must not perturb"
        );
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("lifepred_sim_allocs_total"),
            Some(observed.total_allocs)
        );
        assert_eq!(
            snap.counter("lifepred_sim_arena_allocs_total"),
            Some(observed.arena_allocs)
        );
        assert_eq!(
            snap.counter("lifepred_sim_frees_total"),
            Some(observed.total_allocs),
            "this workload frees everything"
        );
        let sizes = snap.histogram("lifepred_sim_size_bytes").expect("sizes");
        assert_eq!(sizes.count, observed.total_allocs);
        assert_eq!(sizes.sum, observed.total_bytes);
        let lifetimes = snap
            .histogram("lifepred_sim_lifetime_bytes")
            .expect("lifetimes");
        assert_eq!(lifetimes.count, observed.total_allocs);
        // The 4000 short-lived objects die within a few hundred bytes;
        // the 20 keepers live across the whole 2000-iteration churn.
        assert!(
            lifetimes.quantile(0.5) < 4096,
            "{}",
            lifetimes.quantile(0.5)
        );
        assert!(lifetimes.max > 100_000, "{}", lifetimes.max);
        // Offline replays have no epochs.
        let timeline = snap.timeline("lifepred_sim_epochs").expect("timeline");
        assert!(timeline.is_empty());
    }

    #[test]
    fn observed_online_replay_fills_epoch_timeline() {
        let t = workload();
        let meta = ReplayMeta::of(&t);
        let cfg = ReplayConfig::default();
        let epoch = small_epoch();
        let registry = lifepred_obs::Registry::new();
        let obs = ReplayObs::register(&registry);
        let plan = ReplayPlan::ArenaOnline {
            sites: &site_fingerprints(&t, &SiteConfig::default()),
            epoch,
            arena: cfg.arena,
        };
        let observed = replay(&meta, TraceChunks::new(&t), &plan, Some(&obs))
            .map(OnlineReplayReport::of)
            .expect("valid");
        assert_eq!(
            observed,
            replay_arena_online(&t, &SiteConfig::default(), &epoch, &cfg),
            "obs must not perturb the learner"
        );
        let snap = registry.snapshot();
        let timeline = snap.timeline("lifepred_sim_epochs").expect("timeline");
        assert!(!timeline.is_empty(), "epoch ticks must leave samples");
        let first = timeline.first().expect("sample");
        let last = timeline.last().expect("sample");
        assert!(last.clock_bytes > first.clock_bytes, "clock advances");
        assert!(last.epoch >= first.epoch, "epochs only grow");
        assert_eq!(
            last.max_heap_bytes, observed.replay.max_heap_bytes,
            "final sample sees the final high-water mark"
        );
        assert!(
            timeline.iter().any(|s| s.short_sites > 0),
            "the short site shows up in some sample"
        );
        for s in timeline {
            assert!((0.0..=100.0).contains(&s.utilization_pct), "{s:?}");
            assert!((0.0..=100.0).contains(&s.fragmentation_pct), "{s:?}");
        }
    }

    #[test]
    fn replay_rejects_bad_sequences() {
        let meta = ReplayMeta::default();
        let arena = ArenaConfig::default();
        let corrupt = |events: Vec<ChunkEvent>, plan: ReplayPlan<'_>| {
            let result = replay(&meta, scripted(vec![Ok(events)]), &plan, None);
            assert!(
                matches!(result, Err(ReplayStreamError::Corrupt(_))),
                "{plan:?}: {result:?}"
            );
        };
        // Double alloc, out-of-order alloc, free before alloc.
        corrupt(vec![ALLOC_0, ALLOC_0], ReplayPlan::FirstFit);
        corrupt(
            vec![ChunkEvent::Alloc { record: 1, size: 8 }],
            ReplayPlan::Bsd,
        );
        corrupt(vec![ChunkEvent::Free { record: 3 }], ReplayPlan::Bsd);
        corrupt(
            vec![
                ALLOC_0,
                ChunkEvent::Free { record: 0 },
                ChunkEvent::Free { record: 0 },
            ],
            ReplayPlan::FirstFit,
        );
        // An allocation the plan has no prediction / fingerprint for.
        let predicted = &[];
        corrupt(vec![ALLOC_0], ReplayPlan::Arena { predicted, arena });
        let (sites, epoch) = (&[][..], EpochConfig::default());
        corrupt(
            vec![ALLOC_0],
            ReplayPlan::ArenaOnline {
                sites,
                epoch,
                arena,
            },
        );
    }

    #[test]
    fn replay_propagates_source_errors_after_the_events_before_them() {
        let meta = ReplayMeta::default();
        let failing = scripted(vec![Ok(vec![ALLOC_0]), Err("disk on fire")]);
        match replay(&meta, failing, &ReplayPlan::FirstFit, None) {
            Err(ReplayStreamError::Source(e)) => assert_eq!(e, "disk on fire"),
            other => panic!("expected source error, got {other:?}"),
        }
        // The batch before the failure is replayed first: its double
        // alloc is what stops the replay, not the source error.
        let failing = scripted(vec![Ok(vec![ALLOC_0, ALLOC_0]), Err("disk on fire")]);
        assert!(matches!(
            replay(&meta, failing, &ReplayPlan::Bsd, None),
            Err(ReplayStreamError::Corrupt(_))
        ));
    }
}
