//! Trace-driven simulation: replaying traces through the allocators.
//!
//! The paper evaluates lifetime prediction by one procedure —
//! trace-driven simulation with the allocator and the predictor as the
//! only variables — and so does this module: [`replay`] reads any
//! [`TraceSource`] (an in-memory [`Trace`](lifepred_trace::Trace), a
//! mapped `.lpt` file) and runs its event batches through the one loop,
//! `drive`, with the backend a [`ReplayPlan`] names. A predicting plan
//! names its database (or, online, its site keying), and `replay` reads
//! each allocation's site off the records as the events reach it. A new
//! allocator is one `SimHeap` impl, a new predictor one `Predict` impl;
//! watching a replay (`Some(obs)`) swaps the loop's `Observe` parameter
//! and nothing else, so observed and unobserved replays return
//! identical reports.

use crate::arena::{ArenaAllocator, ArenaConfig};
use crate::bsd::BsdMalloc;
use crate::counts::OpCounts;
use crate::firstfit::FirstFit;
use crate::index::IndexStats;
use crate::live::{LiveObj, LiveTable};
use crate::obs::{ObsCtx, Observe, ReplayObs, Unobserved};
use crate::predict::{NoPrediction, Online, Predict, SiteCursor};
use crate::Addr;
use lifepred_adaptive::{EpochConfig, LearnerStats};
use lifepred_core::{ShortLivedSet, SiteConfig};
use lifepred_trace::{ChunkEvent, ChunkSource, EventChunk, TraceSource, POOLED_CHUNK_EVENTS};
use std::fmt;

/// Which simulated allocator a [`replay`] runs, and where its lifetime
/// predictions come from.
#[derive(Debug, Clone, Copy)]
pub enum ReplayPlan<'a> {
    /// Knuth's first-fit (the paper's baseline for Table 8); predicts
    /// nothing.
    FirstFit,
    /// The 4.2BSD bucket allocator (the Table 9 CPU baseline);
    /// predicts nothing.
    Bsd,
    /// The lifetime-predicting arena allocator consulting a frozen,
    /// offline-trained database at every allocation — the simulation
    /// behind Tables 7 and 8.
    Arena {
        /// The trained short-lived site set; its own site
        /// configuration keys the trace's allocation sites.
        db: &'a ShortLivedSet,
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
        /// How allocation sites are keyed.
        sites: SiteConfig,
        /// The learner's thresholds and epoch length.
        epoch: EpochConfig,
        /// Arena-area geometry.
        arena: ArenaConfig,
    },
}

/// Why a replay stopped early.
#[derive(Debug)]
pub enum ReplayStreamError<E> {
    /// The trace itself failed (e.g. a corrupt trace file).
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

/// Object `record` is allocated with no `what` behind it: there are
/// only `known`.
pub(crate) fn missing<E>(record: usize, what: &str, known: usize) -> ReplayStreamError<E> {
    ReplayStreamError::Corrupt(format!("object {record} has no {what} ({known} known)"))
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
pub(crate) trait SimHeap {
    /// Allocates `size` bytes. `short` is the predictor's verdict; the
    /// non-predicting allocators ignore it.
    fn place(&mut self, size: u32, short: bool) -> Addr;
    /// Frees a live allocation of `size` bytes (the live table refuses a double free).
    fn release(&mut self, addr: Addr, size: u32);
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
    fn release(&mut self, addr: Addr, _size: u32) {
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
    fn release(&mut self, addr: Addr, size: u32) {
        self.free(addr, size);
    }
    fn high_water_bytes(&self) -> u64 {
        self.heap_bytes()
    }
    fn op_counts(&self) -> OpCounts {
        *self.counts()
    }
}

impl SimHeap for ArenaAllocator {
    fn place(&mut self, size: u32, short: bool) -> Addr {
        self.alloc(size, short)
    }
    fn release(&mut self, addr: Addr, _size: u32) {
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

/// Replays `input` through the allocator `plan` names. With
/// `Some(obs)` every event is additionally recorded into the
/// `lifepred_sim_*` metrics of `obs` — including, for
/// [`ReplayPlan::ArenaOnline`], one `lifepred_sim_epochs` timeline
/// sample per learner epoch tick; the returned report is the same
/// either way. A predicting plan reads one record per allocation, in
/// lock step with the events, and keeps its state per site.
///
/// # Errors
///
/// [`ReplayStreamError::Source`] if the events or the records fail (the
/// events before the failure are replayed first);
/// [`ReplayStreamError::Corrupt`] on an allocation out of birth order, a
/// free of an object that is not live, an allocation with no record
/// behind it, or events whose object and byte totals are not the
/// header's.
pub fn replay<T: TraceSource>(
    input: &T,
    plan: &ReplayPlan<'_>,
    obs: Option<&ReplayObs<'_>>,
) -> Result<Replayed, ReplayStreamError<T::Error>> {
    let stats = input.stats();
    let meta = (input.name(), stats.function_calls);
    let replayed = match *plan {
        ReplayPlan::FirstFit => {
            let heap = FirstFit::new();
            run(meta, input.events(), "first-fit", heap, NoPrediction, obs)
        }
        ReplayPlan::Bsd => {
            let heap = BsdMalloc::new();
            run(meta, input.events(), "bsd", heap, NoPrediction, obs)
        }
        ReplayPlan::Arena { db, arena } => {
            let records = input.record_source().map_err(ReplayStreamError::Source)?;
            let mut sites = SiteCursor::new(records, *db.config());
            let mut verdicts = Vec::new();
            let predicts = move |record, size| {
                sites.verdict(record, size, &mut verdicts, |site| db.predicts(site))
            };
            let heap = ArenaAllocator::new(arena);
            run(meta, input.events(), "arena", heap, predicts, obs)
        }
        ReplayPlan::ArenaOnline {
            sites,
            epoch,
            arena,
        } => {
            let records = input.record_source().map_err(ReplayStreamError::Source)?;
            let mut sites = SiteCursor::new(records, sites);
            let site_id = move |record, size| sites.next(record, size).map(|site| site.0);
            let online = Online::new(site_id, epoch);
            let heap = ArenaAllocator::new(arena);
            run(meta, input.events(), "arena-online", heap, online, obs)
        }
    }?;
    let report = &replayed.0;
    let replayed_totals = (report.total_allocs, report.total_bytes);
    if replayed_totals != (stats.total_objects, stats.total_bytes) {
        return Err(ReplayStreamError::Corrupt(format!(
            "the events allocate {} objects of {} bytes, but the header says {} of {}",
            report.total_allocs, report.total_bytes, stats.total_objects, stats.total_bytes
        )));
    }
    Ok(replayed)
}

/// The engine: replays the batches of `source` through `heap`, asking
/// `predictor`, for a report naming `allocator`; `meta` is the traced
/// program's name and function calls.
pub(crate) fn run<S: ChunkSource, H: SimHeap, P: Predict<H, S::Error>>(
    meta: (&str, u64),
    source: S,
    allocator: &str,
    heap: H,
    predictor: P,
    obs: Option<&ReplayObs<'_>>,
) -> Result<Replayed, ReplayStreamError<S::Error>> {
    match obs {
        Some(obs) => drive(meta, source, allocator, heap, predictor, ObsCtx::new(obs)),
        None => drive(meta, source, allocator, heap, predictor, Unobserved),
    }
}

/// The replay loop: pull a batch, predict, place or free, keep each
/// live object's entry in the [`LiveTable`], count.
fn drive<S, H, P, O>(
    (program, function_calls): (&str, u64),
    mut source: S,
    allocator: &str,
    mut heap: H,
    mut predictor: P,
    mut observer: O,
) -> Result<Replayed, ReplayStreamError<S::Error>>
where
    S: ChunkSource,
    H: SimHeap,
    P: Predict<H, S::Error>,
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
                    heap.release(dead.addr, dead.size);
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
        program: program.to_owned(),
        allocator: allocator.to_owned(),
        total_allocs,
        total_bytes,
        arena_allocs,
        arena_bytes,
        max_heap_bytes: heap.high_water_bytes(),
        counts,
        function_calls,
    };
    Ok((report, predictor.learner_stats()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifepred_core::{train, Profile, SiteConfig, TrainConfig, DEFAULT_THRESHOLD};
    use lifepred_trace::{AllocationRecord, RecordSource, Trace, TraceSession};

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
            batch?.into_iter().for_each(|event| chunk.push(event));
            Ok(true)
        }
    }

    const ALLOC_0: ChunkEvent = ChunkEvent::Alloc { record: 0, size: 8 };

    type Sites<'t> = SiteCursor<'t, std::vec::IntoIter<Result<&'t AllocationRecord, &'static str>>>;

    /// A records walk over `trace`'s chains that yields no record.
    fn no_records(trace: &Trace) -> Sites<'_> {
        let source = RecordSource {
            name: trace.name(),
            chains: trace.chains(),
            end_clock: trace.end_clock(),
            records: Vec::new().into_iter(),
        };
        SiteCursor::new(source, SiteConfig::default())
    }

    /// The predictors of both predicting plans over `sites`.
    fn frozen_over<'t>(mut sites: Sites<'t>) -> impl Predict<ArenaAllocator, &'static str> + 't {
        let mut verdicts = Vec::new();
        move |record, size| sites.verdict(record, size, &mut verdicts, |_| true)
    }

    fn online_over<'t>(mut sites: Sites<'t>) -> impl Predict<ArenaAllocator, &'static str> + 't {
        Online::new(
            move |record, size| sites.next(record, size).map(|site| site.0),
            EpochConfig::default(),
        )
    }

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

    fn replayed(trace: &Trace, plan: ReplayPlan<'_>) -> Replayed {
        replay(trace, &plan, None).expect("valid trace")
    }

    fn firstfit(trace: &Trace) -> ReplayReport {
        replayed(trace, ReplayPlan::FirstFit).0
    }

    fn arena(trace: &Trace, db: &ShortLivedSet) -> ReplayReport {
        let arena = ArenaConfig::default();
        replayed(trace, ReplayPlan::Arena { db, arena }).0
    }

    fn online(trace: &Trace, epoch: EpochConfig) -> (ReplayReport, LearnerStats) {
        let plan = ReplayPlan::ArenaOnline {
            sites: SiteConfig::default(),
            epoch,
            arena: ArenaConfig::default(),
        };
        let (report, learner) = replayed(trace, plan);
        (report, learner.expect("an online replay has a learner"))
    }

    #[test]
    fn firstfit_replay_counts_everything() {
        let t = workload();
        let r = firstfit(&t);
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
        let r = arena(&t, &db);
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
        let (ra, rf) = (arena(&t, &db), firstfit(&t));
        assert_eq!(ra.arena_allocs, 0);
        // Same general-heap demands, plus the 64 KB arena area.
        assert_eq!(
            ra.max_heap_bytes,
            rf.max_heap_bytes + ArenaConfig::default().total_bytes()
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
        let (ra, rf) = (arena(&t, &db), firstfit(&t));
        // The short-lived objects all fit in the arena area, so the
        // general heap only holds the long-lived survivors.
        assert!(ra.counts.arena_allocs > 0);
        assert!(ra.max_heap_bytes <= rf.max_heap_bytes + ArenaConfig::default().total_bytes());
    }

    #[test]
    fn bsd_replay_reuses_buckets() {
        let t = workload();
        let (r, _) = replayed(&t, ReplayPlan::Bsd);
        assert!(r.counts.bucket_pops > r.counts.page_carves);
    }

    #[test]
    fn percentages_are_consistent() {
        let t = workload();
        let db = trained(&t);
        let r = arena(&t, &db);
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
        let (r, learner) = online(&t, small_epoch());
        assert_eq!(r.allocator, "arena-online");
        assert_eq!(r.total_allocs, t.stats().total_objects);
        // The short-lived site is learned after a warmup and routed to
        // arenas from then on.
        assert!(learner.promotions >= 1, "{learner:?}");
        assert!(
            r.arena_alloc_pct() > 50.0,
            "arena alloc pct {}",
            r.arena_alloc_pct()
        );
        // Warmup means online coverage trails the offline oracle.
        let offline = arena(&t, &trained(&t));
        assert!(r.arena_allocs <= offline.arena_allocs);
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
        let (_, learner) = online(&t, small_epoch());
        assert!(learner.promotions >= 1, "{learner:?}");
        assert!(learner.mispredictions >= 1, "{learner:?}");
        assert!(learner.demotions >= 1, "{learner:?}");
    }

    #[test]
    fn observed_replay_matches_unobserved_and_fills_metrics() {
        let t = workload();
        let registry = lifepred_obs::Registry::new();
        let obs = ReplayObs::register(&registry);
        let db = trained(&t);
        let plan = ReplayPlan::Arena {
            db: &db,
            arena: ArenaConfig::default(),
        };
        let (observed, learner) = replay(&t, &plan, Some(&obs)).expect("valid");
        assert_eq!(learner, None, "a frozen database has no learner");
        assert_eq!(observed, arena(&t, &db), "obs must not perturb");
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
        // the 20 keepers live across the whole 2000-iteration churn. The
        // median lies in bucket 12 or below: under 4096 bytes.
        let under_4k: u64 = lifetimes.buckets[..=12].iter().sum();
        assert!(2 * under_4k >= lifetimes.count, "{lifetimes:?}");
        assert!(lifetimes.max > 100_000, "{}", lifetimes.max);
        // Offline replays have no epochs.
        let timeline = snap.timeline("lifepred_sim_epochs").expect("timeline");
        assert!(timeline.is_empty());
    }

    #[test]
    fn observed_online_replay_fills_epoch_timeline() {
        let t = workload();
        let epoch = small_epoch();
        let registry = lifepred_obs::Registry::new();
        let obs = ReplayObs::register(&registry);
        let plan = ReplayPlan::ArenaOnline {
            sites: SiteConfig::default(),
            epoch,
            arena: ArenaConfig::default(),
        };
        let (observed, learner) = replay(&t, &plan, Some(&obs)).expect("valid");
        assert_eq!(
            (observed.clone(), learner.expect("learner")),
            online(&t, epoch),
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
            last.max_heap_bytes, observed.max_heap_bytes,
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

    fn corrupt<H: SimHeap, P: Predict<H, &'static str>>(
        events: Vec<ChunkEvent>,
        heap: H,
        predictor: P,
    ) {
        let result = run(
            ("", 0),
            scripted(vec![Ok(events)]),
            "",
            heap,
            predictor,
            None,
        );
        assert!(
            matches!(result, Err(ReplayStreamError::Corrupt(_))),
            "{result:?}"
        );
    }

    #[test]
    fn replay_rejects_bad_sequences() {
        // Double alloc, out-of-order alloc, free before alloc.
        corrupt(vec![ALLOC_0, ALLOC_0], FirstFit::new(), NoPrediction);
        let out_of_order = ChunkEvent::Alloc { record: 1, size: 8 };
        corrupt(vec![out_of_order], BsdMalloc::new(), NoPrediction);
        corrupt(
            vec![ChunkEvent::Free { record: 3 }],
            BsdMalloc::new(),
            NoPrediction,
        );
        let double_free = vec![
            ALLOC_0,
            ChunkEvent::Free { record: 0 },
            ChunkEvent::Free { record: 0 },
        ];
        corrupt(double_free.clone(), FirstFit::new(), NoPrediction);
        // BSD keeps no per-chunk state: the live table is what refuses it.
        corrupt(double_free, BsdMalloc::new(), NoPrediction);
        // An allocation with no record behind it.
        let t = workload();
        let arena = || ArenaAllocator::new(ArenaConfig::default());
        corrupt(vec![ALLOC_0], arena(), frozen_over(no_records(&t)));
        corrupt(vec![ALLOC_0], arena(), online_over(no_records(&t)));
    }

    #[test]
    fn a_site_cursor_asks_once_per_site() {
        let t = workload();
        let mut sites = SiteCursor::new((&t).into(), SiteConfig::default());
        let (mut asked, mut verdicts) = (Vec::new(), Vec::new());
        for record in 0..t.records().len() {
            let size = t.records()[record].size;
            let verdict = sites.verdict(record, size, &mut verdicts, |site| {
                asked.push(site.clone());
                asked.len() > 1
            });
            assert!(verdict.is_ok());
        }
        // Long 128-byte objects and short 48- and 16-byte ones, each
        // site asked about on its first record only.
        assert_eq!(asked.len(), 3, "{asked:?}");
        assert_eq!(verdicts, [false, true, true]);
        let past_the_end: Result<_, ReplayStreamError<_>> = sites.next(t.records().len(), 8);
        assert!(matches!(past_the_end, Err(ReplayStreamError::Corrupt(_))));
    }

    #[test]
    fn replay_propagates_source_errors_after_the_events_before_them() {
        let failing = scripted(vec![Ok(vec![ALLOC_0]), Err("disk on fire")]);
        match run(("", 0), failing, "", FirstFit::new(), NoPrediction, None) {
            Err(ReplayStreamError::Source(e)) => assert_eq!(e, "disk on fire"),
            other => panic!("expected source error, got {other:?}"),
        }
        // The batch before the failure is replayed first: its double
        // alloc is what stops the replay, not the source error.
        let failing = scripted(vec![Ok(vec![ALLOC_0, ALLOC_0]), Err("disk on fire")]);
        assert!(matches!(
            run(("", 0), failing, "", BsdMalloc::new(), NoPrediction, None),
            Err(ReplayStreamError::Corrupt(_))
        ));
    }
}
