//! Compare the three simulated allocators on every workload: heap
//! sizes, arena hit rates and modeled CPU cost — a one-screen digest
//! of Tables 7-9.
//!
//! Run with `cargo run --release --example compare_allocators`.

use lifepred::core::{train, Profile, SiteConfig, TrainConfig, DEFAULT_THRESHOLD};
use lifepred::heap::{
    arena_costs, bsd_costs, firstfit_costs, replay, ArenaConfig, PredictorKind, ReplayPlan,
};
use lifepred::trace::shared_registry;
use lifepred::workloads::{all_workloads, record};

fn main() {
    println!(
        "{:<10} {:>10} {:>10} {:>10} {:>8} {:>9} {:>9} {:>9}",
        "program", "bsd KB", "ff KB", "arena KB", "arena%", "bsd a+f", "ff a+f", "arena a+f"
    );
    for workload in all_workloads() {
        let registry = shared_registry();
        let training = record(workload.as_ref(), 0, registry.clone());
        let test = record(workload.as_ref(), workload.inputs().len() - 1, registry);
        let profile = Profile::build(&training, &SiteConfig::default(), DEFAULT_THRESHOLD);
        let db = train(&profile, &TrainConfig::default());

        let run = |plan| replay(&test, &plan, None).expect("valid trace").0;
        let bsd = run(ReplayPlan::Bsd);
        let ff = run(ReplayPlan::FirstFit);
        let arena = ArenaConfig::default();
        let arena = run(ReplayPlan::Arena { db: &db, arena });

        println!(
            "{:<10} {:>10} {:>10} {:>10} {:>7.1}% {:>9.0} {:>9.0} {:>9.0}",
            workload.name(),
            bsd.max_heap_bytes / 1024,
            ff.max_heap_bytes / 1024,
            arena.max_heap_bytes / 1024,
            arena.arena_alloc_pct(),
            bsd_costs(&bsd).total(),
            firstfit_costs(&ff).total(),
            arena_costs(&arena, PredictorKind::Len4).total(),
        );
    }
    println!("\n(arena = lifetime-predicting allocator, true prediction, 16 x 4 KB arenas)");
}
