//! Observability wiring for trace-driven replays.
//!
//! [`ReplayObs`] is the `lifepred_sim_*` metric set an observed replay
//! ([`replay`](crate::replay) given `Some(obs)`) publishes into: event
//! counters, the object-size and lifetime histograms (lifetimes in
//! allocated bytes, the paper's clock), the per-event wall-time
//! histogram, and — for the online replay — one epoch-timeline sample
//! per learner tick. [`Observe`] is the seam the replay loop records
//! through: [`ObsCtx`] when someone is watching, the zero-sized
//! [`Unobserved`] when nobody is.

use crate::index::IndexStats;
use crate::live::LiveObj;
use lifepred_obs::{EpochSample, HistogramSnapshot, Registry};
use std::time::Instant;

const ALLOCS_TOTAL: &str = "lifepred_sim_allocs_total";
const FREES_TOTAL: &str = "lifepred_sim_frees_total";
const ARENA_ALLOCS_TOTAL: &str = "lifepred_sim_arena_allocs_total";
const INDEX_HITS_TOTAL: &str = "lifepred_sim_index_hits_total";
const INDEX_NODE_VISITS_TOTAL: &str = "lifepred_sim_index_node_visits_total";
const BATCH_REFILLS_TOTAL: &str = "lifepred_sim_batch_refills_total";
const FREES_INVALID_TOTAL: &str = "lifepred_sim_frees_invalid_total";
const SIZE_BYTES: &str = "lifepred_sim_size_bytes";
const LIFETIME_BYTES: &str = "lifepred_sim_lifetime_bytes";
const EVENT_NS: &str = "lifepred_sim_event_ns";
const EPOCHS: &str = "lifepred_sim_epochs";

/// The registry one replay run publishes its `lifepred_sim_*` metrics
/// into:
///
/// - `lifepred_sim_allocs_total` — allocation events replayed;
/// - `lifepred_sim_frees_total` — free events replayed;
/// - `lifepred_sim_arena_allocs_total` — allocations the simulated
///   allocator served from its arena area;
/// - `lifepred_sim_size_bytes` — requested object sizes;
/// - `lifepred_sim_lifetime_bytes` — object lifetimes measured in
///   bytes of allocation between birth and free;
/// - `lifepred_sim_event_ns` — wall time per replayed event;
/// - `lifepred_sim_epochs` — one sample per online-learner epoch tick
///   (empty for the offline replays);
/// - `lifepred_sim_index_hits_total` — free-tree searches that found a
///   fitting block (first-fit heaps only; zero for the BSD replay);
/// - `lifepred_sim_index_node_visits_total` — free-tree nodes, leaves
///   and internal nodes alike, touched by first-fit search walks: the
///   start address's root-to-leaf path, plus each node the walk enters
///   below an ancestor to reach a hit in a later subtree. A search that
///   starts below every free block touches only the root and the nodes
///   it enters;
/// - `lifepred_sim_batch_refills_total` — event chunks the replay loop
///   consumed, one per refill of up to
///   [`POOLED_CHUNK_EVENTS`](lifepred_trace::POOLED_CHUNK_EVENTS)
///   events;
/// - `lifepred_sim_frees_invalid_total` — free events ignored because
///   their address was not a live allocation (corrupt traces).
#[derive(Debug, Clone, Copy)]
pub struct ReplayObs<'a> {
    registry: &'a Registry,
}

impl ReplayObs<'_> {
    /// Registers the replay metric set in `registry`, every name at
    /// zero, so even a replay that records nothing exports the whole
    /// set.
    pub fn register(registry: &Registry) -> ReplayObs<'_> {
        for name in [
            ALLOCS_TOTAL,
            FREES_TOTAL,
            ARENA_ALLOCS_TOTAL,
            INDEX_HITS_TOTAL,
            INDEX_NODE_VISITS_TOTAL,
            BATCH_REFILLS_TOTAL,
            FREES_INVALID_TOTAL,
        ] {
            registry.add(name, 0);
        }
        for name in [SIZE_BYTES, LIFETIME_BYTES, EVENT_NS] {
            registry.absorb(name, &HistogramSnapshot::empty());
        }
        registry.push(EPOCHS, &[]);
        ReplayObs { registry }
    }
}

/// What the replay loop tells whoever is watching it. The per-event
/// stopwatch belongs to the observer: its reading is the associated
/// [`Observe::Stamp`], so a replay nobody watches never reads a clock.
pub(crate) trait Observe {
    /// Whether anything is recorded. Gates what only an observed
    /// replay does at all: epoch sampling and the flush.
    const ACTIVE: bool;

    /// A stopwatch reading taken before an event is replayed.
    type Stamp;

    /// Reads the stopwatch.
    fn stamp() -> Self::Stamp;

    /// Records one allocation event; `arena` says whether the simulated
    /// allocator served it from its arena area.
    fn on_alloc(&mut self, size: u32, arena: bool, stamp: Self::Stamp);

    /// Records one free event: `dead` is the object's live-table entry.
    fn on_free(&mut self, dead: &LiveObj, stamp: Self::Stamp);

    /// Records the online learner's state at an epoch boundary.
    fn on_epoch(&mut self, sample: EpochSample);

    /// The event stream ended: takes the simulated heap's end-of-run
    /// work counters and the number of event batches consumed, and
    /// publishes everything recorded.
    fn flush(self, index: IndexStats, frees_invalid: u64, batch_refills: u64);
}

/// The observer of a replay nobody watches: zero-sized, its stamp is
/// `()`, and every call monomorphises to nothing.
#[derive(Debug)]
pub(crate) struct Unobserved;

impl Observe for Unobserved {
    const ACTIVE: bool = false;
    type Stamp = ();

    fn stamp() {}
    fn on_alloc(&mut self, _size: u32, _arena: bool, _stamp: ()) {}
    fn on_free(&mut self, _dead: &LiveObj, _stamp: ()) {}
    fn on_epoch(&mut self, _sample: EpochSample) {}
    fn flush(self, _index: IndexStats, _frees_invalid: u64, _batch_refills: u64) {}
}

/// Per-run recording state for one observed replay.
///
/// A replay is single-threaded and owns its `ObsCtx` exclusively, so
/// per-event recording goes into **plain local fields**, and the whole
/// batch is published into the [`ReplayObs`] registry once, by
/// [`Observe::flush`] at end of stream. The per-event cost is a handful
/// of arithmetic ops and two clock reads; the clock reads are most of
/// it (`results/BENCH_obs.json`). Epoch-timeline samples are the
/// exception: they are rare (one per epoch) and pushed as they come.
#[derive(Debug)]
pub(crate) struct ObsCtx<'a> {
    obs: ReplayObs<'a>,
    /// Allocations *not* served from the arena area — the rare branch
    /// in arena-friendly workloads; the totals are derived at flush
    /// time (`allocs` = size-histogram count, `arena` = allocs − this).
    general_allocs: u64,
    /// Sizes allocated so far. Its running sum is the byte clock a dead
    /// object's [`birth`](LiveObj::birth) was read from, so no separate
    /// counter is advanced per event.
    sizes: HistogramSnapshot,
    /// One lifetime per free: frees = this histogram's count.
    lifetimes: HistogramSnapshot,
    event_ns: HistogramSnapshot,
}

impl<'a> ObsCtx<'a> {
    /// Recording state for one replay into `obs`.
    pub(crate) fn new(obs: &ReplayObs<'a>) -> ObsCtx<'a> {
        ObsCtx {
            obs: *obs,
            general_allocs: 0,
            sizes: HistogramSnapshot::empty(),
            lifetimes: HistogramSnapshot::empty(),
            event_ns: HistogramSnapshot::empty(),
        }
    }
}

impl Observe for ObsCtx<'_> {
    const ACTIVE: bool = true;
    type Stamp = Instant;

    #[inline]
    fn stamp() -> Instant {
        Instant::now()
    }

    #[inline]
    fn on_alloc(&mut self, size: u32, arena: bool, stamp: Instant) {
        if !arena {
            self.general_allocs += 1;
        }
        self.sizes.record(u64::from(size));
        self.event_ns.record(elapsed_ns(stamp));
    }

    /// Emits the object's byte lifetime.
    #[inline]
    fn on_free(&mut self, dead: &LiveObj, stamp: Instant) {
        self.lifetimes
            .record(self.sizes.sum.wrapping_sub(dead.birth));
        self.event_ns.record(elapsed_ns(stamp));
    }

    fn on_epoch(&mut self, sample: EpochSample) {
        self.obs.registry.push(EPOCHS, &[sample]);
    }

    fn flush(self, index: IndexStats, frees_invalid: u64, batch_refills: u64) {
        let registry = self.obs.registry;
        registry.add(ALLOCS_TOTAL, self.sizes.count);
        registry.add(ARENA_ALLOCS_TOTAL, self.sizes.count - self.general_allocs);
        registry.add(FREES_TOTAL, self.lifetimes.count);
        registry.absorb(SIZE_BYTES, &self.sizes);
        registry.absorb(LIFETIME_BYTES, &self.lifetimes);
        registry.absorb(EVENT_NS, &self.event_ns);
        registry.add(INDEX_HITS_TOTAL, index.hits);
        registry.add(INDEX_NODE_VISITS_TOTAL, index.node_visits);
        registry.add(BATCH_REFILLS_TOTAL, batch_refills);
        registry.add(FREES_INVALID_TOTAL, frees_invalid);
    }
}

/// Nanoseconds since `stamp`, saturating at `u64::MAX`.
#[inline]
fn elapsed_ns(stamp: Instant) -> u64 {
    u64::try_from(stamp.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifetimes_are_measured_in_allocation_bytes() {
        let reg = Registry::new();
        let obs = ReplayObs::register(&reg);
        let mut ctx = ObsCtx::new(&obs);
        // Object 0 born at clock 0, object 1 at clock 100; freeing 0
        // after both lands a lifetime of 100 + 50 = 150 bytes.
        ctx.on_alloc(100, true, Instant::now());
        ctx.on_alloc(50, false, Instant::now());
        let first = LiveObj {
            addr: crate::Addr(8),
            birth: 0,
            size: 100,
            tag: 0,
        };
        ctx.on_free(&first, Instant::now());
        // Nothing is shared until the batch is flushed.
        assert_eq!(reg.snapshot().counter("lifepred_sim_allocs_total"), Some(0));
        ctx.flush(IndexStats::default(), 0, 1);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("lifepred_sim_allocs_total"), Some(2));
        assert_eq!(snap.counter("lifepred_sim_arena_allocs_total"), Some(1));
        assert_eq!(snap.counter("lifepred_sim_frees_total"), Some(1));
        let lifetimes = snap.histogram("lifepred_sim_lifetime_bytes").expect("hist");
        assert_eq!(lifetimes.count, 1);
        assert_eq!(lifetimes.sum, 150);
        let sizes = snap.histogram("lifepred_sim_size_bytes").expect("hist");
        assert_eq!(sizes.sum, 150);
    }

    #[test]
    fn the_unobserved_observer_is_zero_sized_and_starts_no_timer() {
        assert_eq!(std::mem::size_of::<Unobserved>(), 0);
        // Its stamp is `()`: there is no clock reading to carry.
        assert_eq!(std::mem::size_of::<<Unobserved as Observe>::Stamp>(), 0);
        let () = Unobserved::stamp();
    }
}
