//! The unified telemetry layer end to end: one registry collects an
//! observed online trace replay *and* the live global allocator, then
//! the merged snapshot is dumped as JSON.
//!
//! Run with `cargo run --release --example metrics_dump`.

use lifepred::adaptive::EpochConfig;
use lifepred::core::SiteConfig;
use lifepred::galloc::{GallocConfig, LifepredGlobal};
use lifepred::heap::{replay, ArenaConfig, ReplayObs, ReplayPlan};
use lifepred::obs::Registry;
use lifepred::trace::shared_registry;
use lifepred::workloads::{by_name, record};
use std::alloc::{GlobalAlloc, Layout};

fn main() {
    let registry = Registry::new();

    // --- 1. An observed online simulation fills the lifepred_sim_* set,
    // and its learner's counters the lifepred_learner_* set. ------------
    let workload = by_name("cfrac").expect("built-in workload");
    let trace = record(workload.as_ref(), 0, shared_registry());
    let plan = ReplayPlan::ArenaOnline {
        sites: SiteConfig::default(),
        epoch: EpochConfig::default(),
        arena: ArenaConfig::default(),
    };
    let obs = ReplayObs::register(&registry);
    let (report, learner) = replay(&trace, &plan, Some(&obs)).expect("valid trace");
    let learner = learner.expect("an online replay has a learner");
    learner.export(&registry);
    println!(
        "replayed {} allocs ({} from arenas, {} learner epochs)\n",
        report.total_allocs, report.arena_allocs, learner.epochs
    );

    // --- 2. The global allocator fills lifepred_galloc_*. It is driven
    // through `GlobalAlloc` directly rather than installed, so only this
    // loop's traffic is counted.
    let galloc = LifepredGlobal::new();
    lifepred::galloc::activate_with(GallocConfig::default()).expect("allocator geometry");
    let layout = Layout::from_size_align(64, 8).expect("layout");
    // A worker thread: its counter batch is flushed when it exits.
    std::thread::scope(|s| {
        s.spawn(|| {
            for _ in 0..10_000 {
                // SAFETY: non-zero size.
                let p = unsafe { galloc.alloc(layout) };
                assert!(!p.is_null());
                // SAFETY: p came from this allocator with the same
                // layout and is freed exactly once.
                unsafe { galloc.dealloc(p, layout) };
            }
        });
    });
    lifepred::galloc::stats().export(&registry);

    // --- 3. One snapshot, as `simulate --metrics-out` writes it. --------
    println!("=== JSON (lifepred-metrics-v1) ===");
    print!("{}", registry.snapshot().to_json());
}
