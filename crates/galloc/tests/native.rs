//! Runs the five paper workloads natively through [`LifepredGlobal`]
//! installed as the process-wide `#[global_allocator]`.
//!
//! Unlike the replay path (which simulates traced allocations), these
//! tests route every real allocation the workload generators make —
//! trace buffers, site registries, workload state — through the
//! allocator itself, then check the magazine hit rate and accounting
//! invariants under that organic traffic.

use lifepred_galloc::LifepredGlobal;
use lifepred_trace::shared_registry;
use lifepred_workloads::{all_workloads, by_name, record};

#[global_allocator]
static GLOBAL: LifepredGlobal = LifepredGlobal::new();

fn ensure_active() {
    lifepred_galloc::activate().expect("activation never fails with default geometry");
    assert!(lifepred_galloc::is_active());
}

/// Runs one workload end to end (training + test input) natively.
fn run_native(name: &str) {
    ensure_active();
    let before = lifepred_galloc::stats();
    let workload = by_name(name).expect("known workload");
    let registry = shared_registry();
    let inputs = workload.inputs().len();
    let train = record(workload.as_ref(), 0, registry.clone());
    let test = record(workload.as_ref(), inputs - 1, registry);
    assert!(
        !train.records().is_empty(),
        "{name} training trace is empty"
    );
    assert!(!test.records().is_empty(), "{name} test trace is empty");
    let after = lifepred_galloc::stats();
    assert!(
        after.small_allocs > before.small_allocs,
        "{name} generated no small allocations through the class path"
    );
    // Accounting invariants must hold no matter what the workload did.
    assert_eq!(after.wild_frees, 0, "{name}: free into an uncarved segment");
}

#[test]
fn native_cfrac() {
    run_native("cfrac");
}

#[test]
fn native_espresso() {
    run_native("espresso");
}

#[test]
fn native_gawk() {
    run_native("gawk");
}

#[test]
fn native_ghost() {
    run_native("ghost");
}

#[test]
fn native_perl() {
    run_native("perl");
}

/// The acceptance bar: after all five workloads run natively, the
/// magazine hit rate stays at or above 90% — the class-path
/// hot path is overwhelmingly lock-free.
#[test]
fn native_all_workloads_hit_rate() {
    ensure_active();
    for workload in all_workloads() {
        let registry = shared_registry();
        let inputs = workload.inputs().len();
        record(workload.as_ref(), 0, registry.clone());
        record(workload.as_ref(), inputs - 1, registry);
    }
    let stats = lifepred_galloc::stats();
    assert!(
        stats.small_allocs > 100_000,
        "expected substantial native traffic, saw {} small allocations",
        stats.small_allocs
    );
    let rate = stats.hit_rate();
    assert!(
        rate >= 0.90,
        "magazine hit rate {:.4} below the 0.90 acceptance bar \
         ({} lock allocations / {} small allocations)",
        rate,
        stats.lock_allocs,
        stats.small_allocs
    );
    assert_eq!(stats.wild_frees, 0);
}
