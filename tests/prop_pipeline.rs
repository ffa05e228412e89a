//! Property tests over randomly generated traces: the predictor and
//! the simulators must uphold their invariants for *any* allocation
//! behaviour, not just the built-in workloads.

use lifepred::core::{evaluate, train, Profile, SiteConfig, SitePolicy, TrainConfig};
use lifepred::heap::{replay, ArenaConfig, ReplayPlan};
use lifepred::trace::{Trace, TraceSession};
use proptest::prelude::*;

/// A random program shape: a few "functions", each allocating objects
/// of a fixed size and freeing them after a delay.
#[derive(Debug, Clone)]
struct SyntheticSite {
    name: usize,
    size: u32,
    hold: usize,
    count: usize,
}

fn sites() -> impl Strategy<Value = Vec<SyntheticSite>> {
    proptest::collection::vec(
        (0usize..6, 1u32..3000, 0usize..60, 1usize..80).prop_map(|(name, size, hold, count)| {
            SyntheticSite {
                name,
                size,
                hold,
                count,
            }
        }),
        1..12,
    )
}

/// The sites' function names, indexed by `SyntheticSite::name`.
const NAMES: [&str; 6] = ["fn0", "fn1", "fn2", "fn3", "fn4", "fn5"];

/// Runs the synthetic program, interleaving the sites round-robin.
fn run_synthetic(spec: &[SyntheticSite]) -> Trace {
    let s = TraceSession::new("synthetic");
    let mut pending: Vec<(usize, lifepred::trace::ObjectId)> = Vec::new();
    let mut step = 0usize;
    let mut remaining: Vec<usize> = spec.iter().map(|x| x.count).collect();
    loop {
        let mut any = false;
        for (i, site) in spec.iter().enumerate() {
            if remaining[i] == 0 {
                continue;
            }
            any = true;
            remaining[i] -= 1;
            let id = {
                let _g = s.enter(NAMES[site.name]);
                s.alloc(site.size)
            };
            s.touch(id, 2);
            pending.push((step + site.hold, id));
            step += 1;
        }
        // Free everything whose hold expired.
        pending.retain(|&(due, id)| {
            if due <= step {
                s.free(id);
                false
            } else {
                true
            }
        });
        if !any {
            break;
        }
    }
    for (_, id) in pending {
        s.free(id);
    }
    s.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Self prediction with the all-short rule never mispredicts, on
    /// any trace.
    #[test]
    fn all_short_rule_is_sound(spec in sites()) {
        let trace = run_synthetic(&spec);
        let cfg = SiteConfig::default();
        let profile = Profile::build(&trace, &cfg, 32 * 1024);
        let db = train(&profile, &TrainConfig::default());
        let report = evaluate(&db, &trace);
        prop_assert_eq!(report.error_bytes_pct, 0.0);
        prop_assert!(report.predicted_short_bytes_pct <= report.actual_short_bytes_pct + 1e-9);
    }

    /// Replay conservation: every allocator serves every event, heap
    /// sizes dominate live bytes, and the arena split adds up.
    #[test]
    fn replay_conservation(spec in sites()) {
        let trace = run_synthetic(&spec);
        let cfg = SiteConfig::default();
        let profile = Profile::build(&trace, &cfg, 32 * 1024);
        let db = train(&profile, &TrainConfig::default());
        let (ff, _) = replay(&trace, &ReplayPlan::FirstFit, None).expect("valid trace");
        prop_assert!(ff.max_heap_bytes >= trace.stats().max_live_bytes);
        prop_assert_eq!(ff.counts.allocs, trace.stats().total_objects);

        let plan = ReplayPlan::Arena { db: &db, arena: ArenaConfig::default() };
        let (ar, _) = replay(&trace, &plan, None).expect("valid trace");
        prop_assert!(ar.arena_allocs <= ar.total_allocs);
        prop_assert!(ar.arena_bytes <= ar.total_bytes);
        prop_assert_eq!(ar.counts.allocs, trace.stats().total_objects);
        prop_assert_eq!(ar.counts.frees, trace.stats().total_objects);
    }

    /// Percentages reported by evaluation are always well-formed, for
    /// every site policy.
    #[test]
    fn reports_are_well_formed(spec in sites(), n in 1usize..6) {
        let trace = run_synthetic(&spec);
        for policy in [SitePolicy::Complete, SitePolicy::LastN(n), SitePolicy::Encrypted, SitePolicy::SizeOnly] {
            let cfg = SiteConfig { policy, ..SiteConfig::default() };
            let profile = Profile::build(&trace, &cfg, 32 * 1024);
            let db = train(&profile, &TrainConfig::default());
            let r = evaluate(&db, &trace);
            for pct in [
                r.actual_short_bytes_pct,
                r.predicted_short_bytes_pct,
                r.error_bytes_pct,
                r.predicted_objects_pct,
                r.new_ref_pct,
            ] {
                prop_assert!((0.0..=100.0 + 1e-9).contains(&pct), "{policy:?}: {pct}");
            }
            prop_assert!(r.sites_used as usize <= db.len());
        }
    }

    /// Profiles account for every byte of the trace.
    #[test]
    fn profiles_account_for_all_bytes(spec in sites()) {
        let trace = run_synthetic(&spec);
        let profile = Profile::build(&trace, &SiteConfig::default(), 32 * 1024);
        let site_bytes: u64 = profile.sites().values().map(|s| s.bytes).sum();
        prop_assert_eq!(site_bytes, trace.stats().total_bytes);
        let site_objects: u64 = profile.sites().values().map(|s| s.objects).sum();
        prop_assert_eq!(site_objects, trace.stats().total_objects);
    }
}
