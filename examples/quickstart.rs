//! Quickstart: trace a program, train a predictor, simulate the
//! lifetime-predicting allocator, and print what happened.
//!
//! Run with `cargo run --release --example quickstart`.

use lifepred::core::{evaluate, train, Profile, SiteConfig, TrainConfig, DEFAULT_THRESHOLD};
use lifepred::heap::{replay, ArenaConfig, ReplayPlan};
use lifepred::trace::shared_registry;
use lifepred::workloads::{by_name, record};

fn main() {
    // 1. Trace a training run and a test run of the same program, with
    //    a shared function registry so allocation sites map across runs.
    let workload = by_name("gawk").expect("built-in workload");
    let registry = shared_registry();
    let training = record(workload.as_ref(), 0, registry.clone());
    let test = record(workload.as_ref(), 1, registry);
    println!(
        "traced {}: training {} objects, test {} objects",
        workload.name(),
        training.stats().total_objects,
        test.stats().total_objects
    );

    // 2. Profile the training run and train the short-lived site
    //    database with the paper's all-short rule at 32 KB.
    let config = SiteConfig::default();
    let profile = Profile::build(&training, &config, DEFAULT_THRESHOLD);
    let db = train(&profile, &TrainConfig::default());
    println!(
        "trained database: {} of {} sites predict short-lived objects",
        db.len(),
        profile.total_sites()
    );

    // 3. Evaluate true prediction on the unseen test input.
    let report = evaluate(&db, &test);
    println!(
        "true prediction: {:.1}% of bytes correctly predicted short-lived \
         ({:.2}% mispredicted), {:.1}% of heap references localized",
        report.predicted_short_bytes_pct, report.error_bytes_pct, report.new_ref_pct
    );

    // 4. Replay the test trace through the baseline first-fit heap and
    //    the lifetime-predicting arena allocator.
    let (ff, _) = replay(&test, &ReplayPlan::FirstFit, None).expect("valid trace");
    let arena = ArenaConfig::default();
    let plan = ReplayPlan::Arena { db: &db, arena };
    let (arena, _) = replay(&test, &plan, None).expect("valid trace");
    println!(
        "first-fit heap: {} KB; arena allocator heap: {} KB \
         ({:.1}% of allocations served from 16 x 4 KB arenas)",
        ff.max_heap_bytes / 1024,
        arena.max_heap_bytes / 1024,
        arena.arena_alloc_pct()
    );
}
