//! The unified telemetry layer end to end: attach one registry to an
//! observed trace replay *and* a live sharded allocator, then dump the
//! merged snapshot as JSON and Prometheus text.
//!
//! Run with `cargo run --release --example metrics_dump`.

use lifepred::adaptive::EpochConfig;
use lifepred::alloc::{ShardedAllocator, SiteKey};
use lifepred::core::{train, Profile, SiteConfig, TrainConfig, DEFAULT_THRESHOLD};
use lifepred::heap::{prediction_bitmap, replay, ArenaConfig, ReplayMeta, ReplayObs, ReplayPlan};
use lifepred::obs::Registry;
use lifepred::trace::{shared_registry, TraceChunks};
use lifepred::workloads::{by_name, record};
use std::alloc::Layout;

fn main() {
    let registry = Registry::new();

    // --- 1. An observed simulation fills the lifepred_sim_* set. -------
    let workload = by_name("cfrac").expect("built-in workload");
    let fn_registry = shared_registry();
    let trace = record(workload.as_ref(), 0, fn_registry);
    let profile = Profile::build(&trace, &SiteConfig::default(), DEFAULT_THRESHOLD);
    let db = train(&profile, &TrainConfig::default());
    let plan = ReplayPlan::Arena {
        predicted: &prediction_bitmap(&trace, &db),
        arena: ArenaConfig::default(),
    };
    let obs = ReplayObs::register(&registry);
    let (report, _) = replay(
        &ReplayMeta::of(&trace),
        TraceChunks::new(&trace),
        &plan,
        Some(&obs),
    )
    .expect("valid trace");
    println!(
        "replayed {} allocs ({} from arenas)\n",
        report.total_allocs, report.arena_allocs
    );

    // --- 2. A live allocator fills lifepred_alloc_* + the timeline. ----
    let cfg = EpochConfig {
        threshold: 32 * 1024,
        epoch_bytes: 64 * 1024,
        ..EpochConfig::default()
    };
    let mut heap = ShardedAllocator::adaptive(cfg, 2, Default::default());
    heap.attach_registry(&registry);
    let site = SiteKey(0xC0FFEE);
    let layout = Layout::from_size_align(64, 8).expect("layout");
    for _ in 0..10_000 {
        let p = heap.allocate(site, layout);
        assert!(!p.is_null());
        // SAFETY: p came from this heap's allocate with the same
        // layout and is freed exactly once.
        unsafe { heap.deallocate(p, layout) };
    }
    // Point-in-time gauges + drain of the pending per-shard deltas.
    heap.export_metrics(&registry);
    if let Some(learned) = heap.adaptive_stats() {
        learned.export(&registry);
    }

    // --- 3. One snapshot, both renderings. ------------------------------
    let snap = registry.snapshot();
    println!("=== JSON (lifepred-metrics-v1) ===");
    println!("{}", snap.to_json());
    println!("=== Prometheus text exposition ===");
    print!("{}", snap.to_prometheus());
}
