//! The one replay loop, seen from outside: for every workload and
//! every backend, a watched replay, an unwatched replay and the
//! [`Trace`]-based convenience function return the same report — and
//! watching registers exactly the `lifepred_sim_*` names the golden
//! metrics snapshot pins. The online replay's learner counters are
//! additionally those of the scan-everything oracle learner fed the
//! same events.

#[path = "../crates/adaptive/tests/support/scan_all.rs"]
mod scan_all;

use lifepred::adaptive::EpochConfig;
use lifepred::core::{train, Profile, SiteConfig, TrainConfig, DEFAULT_THRESHOLD};
use lifepred::heap::{
    prediction_bitmap, replay, replay_arena, replay_arena_online, replay_bsd, replay_firstfit,
    site_fingerprints, ReplayConfig, ReplayMeta, ReplayObs, ReplayPlan,
};
use lifepred::obs::{Registry, Snapshot};
use lifepred::trace::{shared_registry, EventKind, Trace, TraceChunks};
use lifepred::workloads::{all_workloads, record};

/// Every metric name of `snapshot` under the replay prefix, sorted.
fn sim_names(snapshot: &Snapshot) -> Vec<&str> {
    let counters = snapshot.counters.iter().map(|(n, _)| n);
    let gauges = snapshot.gauges.iter().map(|(n, _)| n);
    let histograms = snapshot.histograms.iter().map(|(n, _)| n);
    let timelines = snapshot.timelines.iter().map(|(n, _)| n);
    let mut names: Vec<&str> = counters
        .chain(gauges)
        .chain(histograms)
        .chain(timelines)
        .map(String::as_str)
        .filter(|n| n.starts_with("lifepred_sim_"))
        .collect();
    names.sort_unstable();
    names
}

fn self_trained_db(trace: &Trace) -> lifepred::core::ShortLivedSet {
    let profile = Profile::build(trace, &SiteConfig::default(), DEFAULT_THRESHOLD);
    train(&profile, &TrainConfig::default())
}

#[test]
fn every_backend_replays_identically_watched_or_not() {
    let cfg = ReplayConfig::default();
    let sites_cfg = SiteConfig::default();
    let epoch = EpochConfig::default();
    let workloads = all_workloads();
    assert!(workloads.len() >= 6, "the suite lost a program");
    for w in workloads {
        // Training inputs keep twelve replays per program affordable.
        let trace = record(w.as_ref(), 0, shared_registry());
        let meta = ReplayMeta::of(&trace);
        let db = self_trained_db(&trace);
        let predicted = prediction_bitmap(&trace, &db);
        let sites = site_fingerprints(&trace, &sites_cfg);
        let online = replay_arena_online(&trace, &sites_cfg, &epoch, &cfg);
        let mut oracle = scan_all::ScanAllReplay::new(epoch);
        for event in trace.events() {
            match event.kind {
                EventKind::Alloc => {
                    let size = trace.records()[event.record].size;
                    oracle.alloc(event.record, sites[event.record], size);
                }
                EventKind::Free => oracle.free(event.record),
            }
        }
        assert_eq!(
            online.learner,
            oracle.learner.stats(),
            "{}: the learner left its scan-all oracle",
            w.name()
        );
        assert!(online.learner.epochs > 0, "{}: no epoch rolled", w.name());
        let cases = [
            (ReplayPlan::FirstFit, (replay_firstfit(&trace, &cfg), None)),
            (ReplayPlan::Bsd, (replay_bsd(&trace, &cfg), None)),
            (
                ReplayPlan::Arena {
                    predicted: &predicted,
                    arena: cfg.arena,
                },
                (replay_arena(&trace, &db, &cfg), None),
            ),
            (
                ReplayPlan::ArenaOnline {
                    sites: &sites,
                    epoch,
                    arena: cfg.arena,
                },
                (online.replay, Some(online.learner)),
            ),
        ];
        for (plan, in_memory) in cases {
            let what = format!("{} on {}", in_memory.0.allocator, w.name());
            let unwatched =
                replay(&meta, TraceChunks::new(&trace), &plan, None).expect("valid trace");
            let registry = Registry::new();
            let obs = ReplayObs::register(&registry);
            let watched =
                replay(&meta, TraceChunks::new(&trace), &plan, Some(&obs)).expect("valid trace");
            assert_eq!(watched, unwatched, "{what}: watching perturbed the replay");
            assert_eq!(unwatched, in_memory, "{what}: the convenience path differs");
            let snap = registry.snapshot();
            let (report, _) = watched;
            assert_eq!(
                snap.counter("lifepred_sim_allocs_total"),
                Some(report.total_allocs),
                "{what}"
            );
            assert_eq!(
                snap.counter("lifepred_sim_arena_allocs_total"),
                Some(report.arena_allocs),
                "{what}"
            );
        }
    }
}

#[test]
fn a_watched_replay_registers_exactly_the_golden_sim_names() {
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/crates/obs/tests/golden/metrics.json"
    );
    let golden = std::fs::read_to_string(golden).expect("golden metrics snapshot");
    let golden = Snapshot::from_json(&golden).expect("golden snapshot parses");
    let trace = record(all_workloads()[0].as_ref(), 0, shared_registry());
    let registry = Registry::new();
    let obs = ReplayObs::register(&registry);
    let plan = ReplayPlan::ArenaOnline {
        sites: &site_fingerprints(&trace, &SiteConfig::default()),
        epoch: EpochConfig::default(),
        arena: ReplayConfig::default().arena,
    };
    replay(
        &ReplayMeta::of(&trace),
        TraceChunks::new(&trace),
        &plan,
        Some(&obs),
    )
    .expect("valid trace");
    let snap = registry.snapshot();
    assert!(!sim_names(&golden).is_empty());
    assert_eq!(sim_names(&snap), sim_names(&golden));
}
