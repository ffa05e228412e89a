//! The unified telemetry layer end to end: one registry collects an
//! observed trace replay *and* the live global allocator, then the
//! merged snapshot is dumped as JSON and Prometheus text.
//!
//! Run with `cargo run --release --example metrics_dump`.

use lifepred::adaptive::EpochConfig;
use lifepred::core::{train, Profile, SiteConfig, TrainConfig, DEFAULT_THRESHOLD};
use lifepred::galloc::{GallocConfig, LifepredGlobal};
use lifepred::heap::{replay, ArenaConfig, ReplayObs, ReplayPlan};
use lifepred::obs::Registry;
use lifepred::trace::shared_registry;
use lifepred::workloads::{by_name, record};
use std::alloc::{GlobalAlloc, Layout};

fn main() {
    let registry = Registry::new();

    // --- 1. An observed simulation fills the lifepred_sim_* set. -------
    let workload = by_name("cfrac").expect("built-in workload");
    let fn_registry = shared_registry();
    let trace = record(workload.as_ref(), 0, fn_registry);
    let profile = Profile::build(&trace, &SiteConfig::default(), DEFAULT_THRESHOLD);
    let db = train(&profile, &TrainConfig::default());
    let arena = ArenaConfig::default();
    let plan = ReplayPlan::Arena { db: &db, arena };
    let obs = ReplayObs::register(&registry);
    let (report, _) = replay(&trace, &plan, Some(&obs)).expect("valid trace");
    println!(
        "replayed {} allocs ({} from arenas)\n",
        report.total_allocs, report.arena_allocs
    );

    // --- 2. The global allocator fills lifepred_galloc_* and, through
    // its online learner, lifepred_learner_*. It is driven through
    // `GlobalAlloc` directly rather than installed, so only this loop's
    // traffic is counted; short epochs let it roll a few and learn the
    // loop's site.
    let config = GallocConfig {
        epoch: EpochConfig {
            threshold: 32 * 1024,
            epoch_bytes: 64 * 1024,
            ..EpochConfig::default()
        },
        ..GallocConfig::default()
    };
    let galloc = LifepredGlobal::new();
    lifepred::galloc::activate_with(config).expect("allocator geometry");
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
    lifepred::galloc::export_metrics(&registry);

    // --- 3. One snapshot, both renderings. ------------------------------
    let snap = registry.snapshot();
    println!("=== JSON (lifepred-metrics-v1) ===");
    println!("{}", snap.to_json());
    println!("=== Prometheus text exposition ===");
    print!("{}", snap.to_prometheus());
}
