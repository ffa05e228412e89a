//! Observability wiring for trace-driven replays.
//!
//! [`ReplayObs`] bundles the `lifepred_sim_*` metric handles an
//! observed replay ([`replay`](crate::replay) given `Some(obs)`)
//! records into: event counters, the object-size and lifetime
//! histograms (lifetimes in allocated bytes, the paper's clock), the
//! per-event wall-time histogram (empty unless `lifepred-obs` is built
//! with its `timing` feature), and — for the online replay — one
//! epoch-timeline sample per learner tick. [`Observe`] is the seam the
//! replay loop records through: [`ObsCtx`] when someone is watching,
//! the zero-sized [`Unobserved`] when nobody is.

use crate::index::IndexStats;
use lifepred_obs::{
    Counter, EpochSample, EpochTimeline, HistogramSnapshot, LogHistogram, Registry, Timer,
    TIMING_ENABLED,
};
use std::sync::Arc;

/// Metric handles for one replay run, registered under the
/// `lifepred_sim_*` names.
#[derive(Debug, Clone)]
pub struct ReplayObs {
    /// `lifepred_sim_allocs_total` — allocation events replayed.
    pub allocs_total: Arc<Counter>,
    /// `lifepred_sim_frees_total` — free events replayed.
    pub frees_total: Arc<Counter>,
    /// `lifepred_sim_arena_allocs_total` — allocations the simulated
    /// allocator served from its arena area.
    pub arena_allocs_total: Arc<Counter>,
    /// `lifepred_sim_size_bytes` — requested object sizes.
    pub size_bytes: Arc<LogHistogram>,
    /// `lifepred_sim_lifetime_bytes` — object lifetimes measured in
    /// bytes of allocation between birth and free.
    pub lifetime_bytes: Arc<LogHistogram>,
    /// `lifepred_sim_event_ns` — wall time per replayed event; stays
    /// empty unless `lifepred-obs` is built with its `timing` feature.
    pub event_ns: Arc<LogHistogram>,
    /// `lifepred_sim_epochs` — one sample per online-learner epoch
    /// tick (empty for the offline replays).
    pub timeline: Arc<EpochTimeline>,
    /// `lifepred_sim_index_hits_total` — free-tree searches that
    /// found a fitting block (first-fit heaps only; zero for the BSD
    /// replay).
    pub index_hits_total: Arc<Counter>,
    /// `lifepred_sim_index_node_visits_total` — free-tree nodes
    /// visited by those searches.
    pub index_node_visits_total: Arc<Counter>,
    /// `lifepred_sim_batch_refills_total` — event-chunk refills the
    /// replay loop consumed (one per up-to-4096-event batch).
    pub batch_refills_total: Arc<Counter>,
    /// `lifepred_sim_frees_invalid_total` — free events ignored because
    /// their address was not a live allocation (corrupt traces).
    pub frees_invalid_total: Arc<Counter>,
}

impl ReplayObs {
    /// Registers (or re-fetches) the replay metric set in `registry`.
    pub fn register(registry: &Registry) -> ReplayObs {
        ReplayObs {
            allocs_total: registry.counter("lifepred_sim_allocs_total"),
            frees_total: registry.counter("lifepred_sim_frees_total"),
            arena_allocs_total: registry.counter("lifepred_sim_arena_allocs_total"),
            size_bytes: registry.histogram("lifepred_sim_size_bytes"),
            lifetime_bytes: registry.histogram("lifepred_sim_lifetime_bytes"),
            event_ns: registry.histogram("lifepred_sim_event_ns"),
            timeline: registry.timeline("lifepred_sim_epochs"),
            index_hits_total: registry.counter("lifepred_sim_index_hits_total"),
            index_node_visits_total: registry.counter("lifepred_sim_index_node_visits_total"),
            batch_refills_total: registry.counter("lifepred_sim_batch_refills_total"),
            frees_invalid_total: registry.counter("lifepred_sim_frees_invalid_total"),
        }
    }
}

/// What the replay loop tells whoever is watching it. The per-event
/// stopwatch belongs to the observer: its reading is the associated
/// [`Observe::Stamp`], so a replay nobody watches never reads a clock.
pub(crate) trait Observe {
    /// Whether anything is recorded. Gates what only an observed
    /// replay does at all: epoch sampling and the flush (and their
    /// flight events).
    const ACTIVE: bool;

    /// A stopwatch reading taken before an event is replayed.
    type Stamp;

    /// Reads the stopwatch.
    fn stamp() -> Self::Stamp;

    /// Records one allocation event; `arena` says whether the simulated
    /// allocator served it from its arena area.
    fn on_alloc(&mut self, record: usize, size: u32, arena: bool, stamp: Self::Stamp);

    /// Records one free event.
    fn on_free(&mut self, record: usize, stamp: Self::Stamp);

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
    fn on_alloc(&mut self, _record: usize, _size: u32, _arena: bool, _stamp: ()) {}
    fn on_free(&mut self, _record: usize, _stamp: ()) {}
    fn on_epoch(&mut self, _sample: EpochSample) {}
    fn flush(self, _index: IndexStats, _frees_invalid: u64, _batch_refills: u64) {}
}

/// Per-run recording state for one observed replay.
///
/// A replay is single-threaded and owns its `ObsCtx` exclusively, so
/// per-event recording goes into **plain local fields** — no atomics,
/// no TLS, no shared cache lines on the event loop — and the whole
/// batch is published into the shared [`ReplayObs`] handles once, by
/// [`Observe::flush`] at end of stream. Final registry values are
/// identical to per-event publication; the per-event cost is a handful
/// of arithmetic ops plus one birth-clock store/load for exact
/// lifetimes (and one clock read per event where `lifepred-obs` is
/// built with `timing`), a few percent of replay throughput in the
/// recorded `results/BENCH_obs.json` measurement. Epoch-timeline
/// samples are the exception: they are rare (one per epoch) and pushed
/// live.
#[derive(Debug)]
pub(crate) struct ObsCtx<'a> {
    obs: &'a ReplayObs,
    /// Birth clock per record index, filled on its alloc event. The
    /// clock itself is the size histogram's running byte sum — bytes
    /// allocated so far, exactly the paper's lifetime unit — so no
    /// separate counter is advanced per event.
    births: Vec<u64>,
    /// Allocations *not* served from the arena area — the rare branch
    /// in arena-friendly workloads; the totals are derived at flush
    /// time (`allocs` = size-histogram count, `arena` = allocs − this).
    general_allocs: u64,
    /// Frees whose record never allocated (malformed stream); frees =
    /// lifetime-histogram count + this.
    free_misses: u64,
    sizes: HistogramSnapshot,
    lifetimes: HistogramSnapshot,
    event_ns: HistogramSnapshot,
}

impl<'a> ObsCtx<'a> {
    /// Recording state for one replay into `obs`, its birth table
    /// pre-sized for `records` objects (0 = unknown, grow on demand) so
    /// the event loop of a replay that knows its object count never
    /// pays a grow check.
    pub(crate) fn new(obs: &'a ReplayObs, records: usize) -> ObsCtx<'a> {
        ObsCtx {
            obs,
            births: vec![0; records],
            general_allocs: 0,
            free_misses: 0,
            sizes: HistogramSnapshot::empty(),
            lifetimes: HistogramSnapshot::empty(),
            event_ns: HistogramSnapshot::empty(),
        }
    }
}

impl Observe for ObsCtx<'_> {
    const ACTIVE: bool = true;
    type Stamp = Timer;

    #[inline]
    fn stamp() -> Timer {
        Timer::start()
    }

    #[inline]
    fn on_alloc(&mut self, record: usize, size: u32, arena: bool, timer: Timer) {
        if !arena {
            self.general_allocs += 1;
        }
        if record >= self.births.len() {
            self.births.resize(record + 1, 0);
        }
        self.births[record] = self.sizes.sum;
        self.sizes.record(u64::from(size));
        if TIMING_ENABLED {
            self.event_ns.record(timer.elapsed_ns());
        }
    }

    /// Emits the object's byte lifetime.
    #[inline]
    fn on_free(&mut self, record: usize, timer: Timer) {
        if let Some(&birth) = self.births.get(record) {
            self.lifetimes.record(self.sizes.sum.wrapping_sub(birth));
        } else {
            self.free_misses += 1;
        }
        if TIMING_ENABLED {
            self.event_ns.record(timer.elapsed_ns());
        }
    }

    fn on_epoch(&mut self, sample: EpochSample) {
        self.obs.timeline.push(sample);
    }

    fn flush(self, index: IndexStats, frees_invalid: u64, batch_refills: u64) {
        self.obs.allocs_total.add(self.sizes.count);
        self.obs
            .arena_allocs_total
            .add(self.sizes.count - self.general_allocs);
        self.obs
            .frees_total
            .add(self.lifetimes.count + self.free_misses);
        self.obs.size_bytes.absorb(&self.sizes);
        self.obs.lifetime_bytes.absorb(&self.lifetimes);
        self.obs.event_ns.absorb(&self.event_ns);
        self.obs.index_hits_total.add(index.hits);
        self.obs.index_node_visits_total.add(index.node_visits);
        self.obs.batch_refills_total.add(batch_refills);
        self.obs.frees_invalid_total.add(frees_invalid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifetimes_are_measured_in_allocation_bytes() {
        let reg = Registry::new();
        let obs = ReplayObs::register(&reg);
        let mut ctx = ObsCtx::new(&obs, 0);
        // Object 0 born at clock 0, object 1 at clock 100; freeing 0
        // after both lands a lifetime of 100 + 50 = 150 bytes.
        ctx.on_alloc(0, 100, true, Timer::start());
        ctx.on_alloc(1, 50, false, Timer::start());
        ctx.on_free(0, Timer::start());
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
