//! galloc's exported metric set is the one the obs golden pins: adding,
//! renaming or dropping a `GallocStats` counter fails here until the
//! golden (`crates/obs/tests/golden/metrics.json`) is re-blessed.

use lifepred_galloc::GallocStats;
use lifepred_obs::{Registry, Snapshot};

/// Every `lifepred_galloc_*` metric of `snapshot` with its kind, sorted.
fn galloc_metrics(snapshot: &Snapshot) -> Vec<(&str, &str)> {
    let counters = snapshot.counters.iter().map(|(n, _)| ("counter", n));
    let gauges = snapshot.gauges.iter().map(|(n, _)| ("gauge", n));
    let histograms = snapshot.histograms.iter().map(|(n, _)| ("histogram", n));
    let timelines = snapshot.timelines.iter().map(|(n, _)| ("timeline", n));
    let mut metrics: Vec<(&str, &str)> = counters
        .chain(gauges)
        .chain(histograms)
        .chain(timelines)
        .map(|(kind, n)| (kind, n.as_str()))
        .filter(|(_, n)| n.starts_with("lifepred_galloc_"))
        .collect();
    metrics.sort_unstable();
    metrics
}

#[test]
fn export_registers_exactly_the_golden_galloc_names() {
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../obs/tests/golden/metrics.json"
    );
    let golden = std::fs::read_to_string(golden).expect("golden metrics snapshot");
    let golden = Snapshot::from_json(&golden).expect("golden snapshot parses");
    let registry = Registry::new();
    GallocStats::default().export(&registry);
    let snap = registry.snapshot();
    assert!(!galloc_metrics(&golden).is_empty());
    assert_eq!(galloc_metrics(&snap), galloc_metrics(&golden));
}
