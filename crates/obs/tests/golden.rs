//! Golden-file tests pinning the metric schema byte-for-byte.
//!
//! The registry below carries every canonical metric name the
//! workspace registers — the `lifepred_sim_*` replay set
//! (`lifepred-heap`), the `lifepred_galloc_*` global-allocator set
//! (`lifepred-galloc`), and the `lifepred_learner_*` gauges
//! (`lifepred-adaptive`) — with fixed
//! values, rendered to JSON and Prometheus text and diffed against
//! `tests/golden/metrics.{json,prom}`. Renaming a metric, changing a
//! kind, or perturbing either renderer's output is a schema change and
//! must show up as a golden diff.
//!
//! To bless an intentional change:
//!
//! ```text
//! LIFEPRED_REGEN_GOLDEN=1 cargo test -p lifepred-obs --test golden
//! ```

use lifepred_obs::{EpochSample, Registry, Snapshot};
use std::path::PathBuf;

/// Replay counters/histograms/timeline registered by `lifepred-heap`.
const SIM_COUNTERS: &[&str] = &[
    "lifepred_sim_allocs_total",
    "lifepred_sim_arena_allocs_total",
    "lifepred_sim_frees_total",
    "lifepred_sim_index_hits_total",
    "lifepred_sim_index_node_visits_total",
    "lifepred_sim_batch_refills_total",
    "lifepred_sim_frees_invalid_total",
];
const SIM_HISTOGRAMS: &[&str] = &[
    "lifepred_sim_size_bytes",
    "lifepred_sim_lifetime_bytes",
    "lifepred_sim_event_ns",
];

/// Counters exported by `GallocStats::export` (`lifepred-galloc`), in
/// its field order; galloc's own test checks it registers exactly
/// these names.
const GALLOC_COUNTERS: &[&str] = &[
    "lifepred_galloc_small_allocs_total",
    "lifepred_galloc_lock_allocs_total",
    "lifepred_galloc_refills_total",
    "lifepred_galloc_flushes_total",
    "lifepred_galloc_short_refills_total",
    "lifepred_galloc_short_allocs_total",
    "lifepred_galloc_small_bytes_total",
    "lifepred_galloc_mag_frees_total",
    "lifepred_galloc_remote_frees_total",
    "lifepred_galloc_remote_drained_total",
    "lifepred_galloc_short_frees_total",
    "lifepred_galloc_seg_resets_total",
    "lifepred_galloc_central_frees_total",
    "lifepred_galloc_reentrant_allocs_total",
    "lifepred_galloc_fallback_large_total",
    "lifepred_galloc_fallback_align_total",
    "lifepred_galloc_fallback_exhausted_total",
    "lifepred_galloc_system_frees_total",
    "lifepred_galloc_sampled_allocs_total",
    "lifepred_galloc_sampled_frees_total",
    "lifepred_galloc_sample_drops_total",
    "lifepred_galloc_mispredict_frees_total",
    "lifepred_galloc_pinned_noted_total",
    "lifepred_galloc_short_free_underflows_total",
    "lifepred_galloc_wild_frees_total",
    "lifepred_galloc_epoch_ticks_total",
];

/// The gauge exported next to them.
const GALLOC_GAUGES: &[&str] = &["lifepred_galloc_magazine_hit_rate_pct"];

/// Snapshot gauges exported by `LearnerStats::export` (`lifepred-adaptive`).
const LEARNER_GAUGES: &[&str] = &[
    "lifepred_learner_epochs",
    "lifepred_learner_sites",
    "lifepred_learner_short_sites",
    "lifepred_learner_promotions",
    "lifepred_learner_demotions",
    "lifepred_learner_mispredictions",
    "lifepred_learner_total_allocs",
    "lifepred_learner_predicted_allocs",
    "lifepred_learner_total_bytes",
    "lifepred_learner_predicted_bytes",
    "lifepred_learner_error_bytes",
    "lifepred_learner_total_frees",
    "lifepred_learner_long_frees",
];

const TIMELINES: &[&str] = &["lifepred_sim_epochs"];

/// Builds the full canonical registry with deterministic values: each
/// metric's value is derived from its position so every entry is
/// distinguishable in the rendered output.
fn canonical_registry() -> Registry {
    let registry = Registry::new();
    for (i, name) in SIM_COUNTERS.iter().chain(GALLOC_COUNTERS).enumerate() {
        registry.counter(name).add(100 + i as u64);
    }
    // Gauges start at 210 so the learner set keeps the values (211..)
    // it was blessed with before the galloc gauge joined.
    for (i, name) in GALLOC_GAUGES.iter().chain(LEARNER_GAUGES).enumerate() {
        registry.gauge(name).set(210 + i as u64);
    }
    for (i, name) in SIM_HISTOGRAMS.iter().enumerate() {
        let h = registry.histogram(name);
        // Spread observations across buckets, including 0 and a large
        // outlier, so sparse bucket serialization is exercised.
        h.observe(0);
        h.observe(1 + i as u64);
        h.observe(48);
        h.observe(1 << (20 + i));
    }
    for (i, name) in TIMELINES.iter().enumerate() {
        let t = registry.timeline(name);
        for epoch in 0..2u64 {
            t.push(EpochSample {
                epoch,
                clock_bytes: 4096 * (epoch + 1),
                generation: epoch,
                short_sites: 3 + i as u64,
                sites: 10,
                live_bytes: 512,
                max_heap_bytes: 8192,
                utilization_pct: 75.5,
                fragmentation_pct: 2.25,
                mispredictions: epoch,
                demotions: 0,
            });
        }
    }
    registry
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check(file: &str, rendered: &str) {
    let path = golden_path(file);
    if std::env::var_os("LIFEPRED_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, rendered).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); bless with LIFEPRED_REGEN_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        rendered, want,
        "{file} drifted from its golden copy — if the schema change is \
         intentional, bless it with LIFEPRED_REGEN_GOLDEN=1 and call it \
         out in the changelog"
    );
}

#[test]
fn json_rendering_is_pinned() {
    check("metrics.json", &canonical_registry().snapshot().to_json());
}

#[test]
fn prometheus_rendering_is_pinned() {
    check(
        "metrics.prom",
        &canonical_registry().snapshot().to_prometheus(),
    );
}

#[test]
fn golden_json_parses_back_to_the_same_snapshot() {
    let snap = canonical_registry().snapshot();
    let parsed = Snapshot::from_json(&snap.to_json()).expect("own JSON parses");
    assert_eq!(parsed, snap);
}
