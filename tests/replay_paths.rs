//! The one replay entry point, seen from outside: for every workload
//! and every plan, `replay` over an in-memory trace, over the same
//! trace written to `.lpt` bytes and mapped back, watched and
//! unwatched, returns one report — and watching registers exactly the
//! `lifepred_sim_*` names the golden metrics snapshot pins. The online
//! replay's learner counters are additionally those of the
//! scan-everything oracle learner fed the same events, and every
//! adapter of `heap::frozen` returns what `replay` returns.

#[path = "../crates/adaptive/tests/support/scan_all.rs"]
mod scan_all;

use lifepred::adaptive::{EpochConfig, LearnerStats};
use lifepred::core::{
    train, Profile, ShortLivedSet, SiteConfig, SiteExtractor, TrainConfig, DEFAULT_THRESHOLD,
};
use lifepred::heap::frozen::{
    prediction_bitmap, replay_arena, replay_arena_chunks, replay_arena_online,
    replay_arena_online_chunks, replay_bsd, replay_bsd_chunks, replay_firstfit,
    replay_firstfit_chunks, replay_firstfit_chunks_observed, OnlineReplayReport, ReplayConfig,
    ReplayMeta,
};
use lifepred::heap::{replay, ArenaConfig, ReplayObs, ReplayPlan, ReplayReport};
use lifepred::obs::{Registry, Snapshot};
use lifepred::trace::{shared_registry, EventKind, Trace, TraceSource};
use lifepred::workloads::{all_workloads, record};
use lifepred_tracefile::{trace_to_vec, MappedTrace, TraceMap};

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

fn self_trained_db(trace: &Trace) -> ShortLivedSet {
    let profile = Profile::build(trace, &SiteConfig::default(), DEFAULT_THRESHOLD);
    train(&profile, &TrainConfig::default())
}

/// The same trace, written to `.lpt` bytes and mapped back.
fn mapped(trace: &Trace) -> MappedTrace {
    let bytes = trace_to_vec(trace).expect("encode");
    MappedTrace::from_map(TraceMap::from_vec(bytes)).expect("decode")
}

/// The four plans, the arena ones over `db` and the default sites.
fn plans(db: &ShortLivedSet) -> [ReplayPlan<'_>; 4] {
    let arena = ArenaConfig::default();
    [
        ReplayPlan::FirstFit,
        ReplayPlan::Bsd,
        ReplayPlan::Arena { db, arena },
        ReplayPlan::ArenaOnline {
            sites: SiteConfig::default(),
            epoch: EpochConfig::default(),
            arena,
        },
    ]
}

type Replayed = (ReplayReport, Option<LearnerStats>);

/// `replay` of `input` under `plan`, watched, and the metrics it left.
fn watched<T: TraceSource>(input: &T, plan: &ReplayPlan<'_>) -> (Replayed, Snapshot)
where
    T::Error: std::fmt::Debug,
{
    let registry = Registry::new();
    let obs = ReplayObs::register(&registry);
    let replayed = replay(input, plan, Some(&obs)).expect("valid trace");
    (replayed, registry.snapshot())
}

#[test]
fn every_backend_replays_identically_watched_or_not() {
    let epoch = EpochConfig::default();
    let workloads = all_workloads();
    assert!(workloads.len() >= 6, "the suite lost a program");
    for w in workloads {
        // Training inputs keep the replays per program affordable.
        let trace = record(w.as_ref(), 0, shared_registry());
        let file = mapped(&trace);
        let db = self_trained_db(&trace);
        for plan in plans(&db) {
            let unwatched = replay(&trace, &plan, None).expect("valid trace");
            let what = format!("{} on {}", unwatched.0.allocator, w.name());
            let (seen, snap) = watched(&trace, &plan);
            assert_eq!(seen, unwatched, "{what}: watching perturbed the replay");
            let from_file = replay(&file, &plan, None).expect("valid file");
            assert_eq!(from_file, unwatched, "{what}: the mapped file differs");
            let (seen, file_snap) = watched(&file, &plan);
            assert_eq!(seen, unwatched, "{what}: the watched mapped file differs");
            assert_eq!(snap.counters, file_snap.counters, "{what}");
            let (report, learner) = unwatched;
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
            let ReplayPlan::ArenaOnline { sites, .. } = plan else {
                assert_eq!(learner, None, "{what}");
                continue;
            };
            // The learner against its scan-all oracle, each record's
            // site fingerprint taken straight from the extractor.
            let learner = learner.expect("an online replay has a learner");
            let mut extractor = SiteExtractor::from_chains(trace.chains(), sites);
            let mut oracle = scan_all::ScanAllReplay::new(epoch);
            for event in trace.events() {
                match event.kind {
                    EventKind::Alloc => {
                        let record = &trace.records()[event.record];
                        let site = extractor.site_of(record).fingerprint();
                        oracle.alloc(event.record, site, record.size);
                    }
                    EventKind::Free => oracle.free(event.record),
                }
            }
            assert_eq!(
                learner,
                oracle.learner.stats(),
                "{}: the learner left its scan-all oracle",
                w.name()
            );
            assert!(learner.epochs > 0, "{}: no epoch rolled", w.name());
        }
    }
}

#[test]
fn every_frozen_adapter_returns_what_replay_returns() {
    let cfg = ReplayConfig::default();
    let (sites, epoch) = (SiteConfig::default(), EpochConfig::default());
    for w in all_workloads() {
        let trace = record(w.as_ref(), 0, shared_registry());
        let file = mapped(&trace);
        let meta = ReplayMeta {
            program: trace.name().to_owned(),
            function_calls: trace.stats().function_calls,
        };
        let db = self_trained_db(&trace);
        let [firstfit, bsd, arena, online] =
            plans(&db).map(|plan| replay(&trace, &plan, None).expect("valid trace"));
        let name = w.name();
        let (firstfit, bsd, arena) = (firstfit.0, bsd.0, arena.0);
        let online = OnlineReplayReport {
            replay: online.0,
            learner: online.1.expect("an online replay has a learner"),
        };

        let mut extractor = SiteExtractor::from_chains(trace.chains(), sites);
        let predicted = prediction_bitmap(&trace, &db);
        let fingerprints: Vec<u64> = (trace.records().iter())
            .map(|record| extractor.site_of(record).fingerprint())
            .collect();
        let mut extractor = SiteExtractor::from_chains(trace.chains(), *db.config());
        let expected: Vec<bool> = (trace.records().iter())
            .map(|record| db.predicts(&extractor.site_of(record)))
            .collect();
        assert_eq!(predicted, expected, "{name}: prediction_bitmap");

        assert_eq!(replay_firstfit(&trace, &cfg), firstfit, "{name}");
        assert_eq!(replay_bsd(&trace, &cfg), bsd, "{name}");
        assert_eq!(replay_arena(&trace, &db, &cfg), arena, "{name}");
        let adapted = replay_arena_online(&trace, &sites, &epoch, &cfg);
        assert_eq!(adapted, online, "{name}");

        let chunks = replay_firstfit_chunks(&meta, file.events(), &cfg);
        assert_eq!(chunks.expect("valid file"), firstfit, "{name}");
        let obs_registry = Registry::new();
        let obs = ReplayObs::register(&obs_registry);
        let chunks = replay_firstfit_chunks_observed(&meta, file.events(), &cfg, &obs);
        assert_eq!(chunks.expect("valid file"), firstfit, "{name}");
        let chunks = replay_bsd_chunks(&meta, file.events(), &cfg);
        assert_eq!(chunks.expect("valid file"), bsd, "{name}");
        let chunks = replay_arena_chunks(&meta, file.events(), &predicted, &cfg);
        assert_eq!(chunks.expect("valid file"), arena, "{name}");
        let chunks = replay_arena_online_chunks(&meta, file.events(), &fingerprints, &epoch, &cfg);
        assert_eq!(chunks.expect("valid file"), online, "{name}");
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
    let plan = ReplayPlan::ArenaOnline {
        sites: SiteConfig::default(),
        epoch: EpochConfig::default(),
        arena: ArenaConfig::default(),
    };
    let (_, snap) = watched(&trace, &plan);
    assert!(!sim_names(&golden).is_empty());
    assert_eq!(sim_names(&snap), sim_names(&golden));
}
