//! Ablation studies beyond the paper's tables: threshold sweep, arena
//! geometry sweep, relaxed training rule, and CCE collision behaviour.

use lifepred_bench::{build_suite, f1, print_table, SuiteEntry};
use lifepred_core::{evaluate, train, Profile, SiteConfig, SiteExtractor, SiteKey, TrainConfig};
use lifepred_heap::{replay, ArenaConfig, ReplayPlan};
use std::collections::{HashMap, HashSet};

fn main() {
    let suite = build_suite();
    threshold_sweep(&suite);
    arena_geometry_sweep(&suite);
    relaxed_rule(&suite);
    cce_collisions(&suite);
}

/// How the short-lived threshold changes prediction coverage (the
/// paper fixes 32 KB and notes the choice is application-dependent).
fn threshold_sweep(suite: &[SuiteEntry]) {
    let thresholds = [8 * 1024, 16 * 1024, 32 * 1024, 64 * 1024, 128 * 1024];
    let mut rows = Vec::new();
    for e in suite {
        let mut row = vec![e.name.to_uppercase()];
        for &t in &thresholds {
            let p = Profile::build(&e.test, &SiteConfig::default(), t);
            let db = train(
                &p,
                &TrainConfig {
                    threshold: t,
                    ..TrainConfig::default()
                },
            );
            let r = evaluate(&db, &e.test);
            row.push(format!("{:.0}", r.predicted_short_bytes_pct));
        }
        rows.push(row);
    }
    print_table(
        "Ablation A: short-lived threshold vs predicted bytes % (self)",
        &["Program", "8KB", "16KB", "32KB", "64KB", "128KB"],
        &rows,
    );
}

/// Arena count × size: the paper chose 16 × 4 KB "with the intuition
/// that ... the space in the first half can be re-used".
fn arena_geometry_sweep(suite: &[SuiteEntry]) {
    let geometries = [
        (4usize, 16 * 1024u32),
        (8, 8 * 1024),
        (16, 4 * 1024),
        (32, 2 * 1024),
        (64, 1024),
    ];
    let mut rows = Vec::new();
    for e in suite {
        let p = Profile::build(&e.train, &SiteConfig::default(), 32 * 1024);
        let db = train(&p, &TrainConfig::default());
        let mut row = vec![e.name.to_uppercase()];
        for &(count, size) in &geometries {
            let arena = ArenaConfig {
                arena_count: count,
                arena_size: size,
            };
            let plan = ReplayPlan::Arena { db: &db, arena };
            let (r, _) = replay(&e.test, &plan, None).expect("a recorded trace replays");
            row.push(format!("{:.0}", r.arena_alloc_pct()));
        }
        rows.push(row);
    }
    print_table(
        "Ablation B: arena geometry (count x size, 64 KB total) vs arena allocs % (true)",
        &["Program", "4x16K", "8x8K", "16x4K", "32x2K", "64x1K"],
        &rows,
    );
}

/// Relaxing the all-short rule: admit sites with up to X% long-lived
/// bytes — more coverage, at the price of mispredictions.
fn relaxed_rule(suite: &[SuiteEntry]) {
    let fractions = [0.0, 0.01, 0.05, 0.20];
    let mut rows = Vec::new();
    for e in suite {
        let p = Profile::build(&e.train, &SiteConfig::default(), 32 * 1024);
        let mut row = vec![e.name.to_uppercase()];
        for &f in &fractions {
            let db = train(
                &p,
                &TrainConfig {
                    max_long_fraction: f,
                    ..TrainConfig::default()
                },
            );
            let r = evaluate(&db, &e.test);
            row.push(format!(
                "{}/{}",
                f1(r.predicted_short_bytes_pct),
                f1(r.error_bytes_pct)
            ));
        }
        rows.push(row);
    }
    print_table(
        "Ablation C: relaxed admission (pred%/err%, true prediction)",
        &["Program", "all-short", "1% long", "5% long", "20% long"],
        &rows,
    );
}

/// How often Carter's 16-bit XOR keys collide: distinct full chains
/// mapping to the same encrypted site.
fn cce_collisions(suite: &[SuiteEntry]) {
    let mut rows = Vec::new();
    for e in suite {
        let mut full_sites: HashSet<SiteKey> = HashSet::new();
        let mut cce_of_full: HashMap<SiteKey, HashSet<SiteKey>> = HashMap::new();
        let mut full_ex = SiteExtractor::from_chains(e.test.chains(), SiteConfig::default());
        let mut cce_ex = SiteExtractor::from_chains(e.test.chains(), SiteConfig::encrypted());
        for record in e.test.records() {
            let full = full_ex.site_of(record);
            let cce = cce_ex.site_of(record);
            full_sites.insert(full.clone());
            cce_of_full.entry(cce).or_default().insert(full);
        }
        let collided: usize = cce_of_full
            .values()
            .filter(|fulls| fulls.len() > 1)
            .map(|fulls| fulls.len())
            .sum();
        rows.push(vec![
            e.name.to_uppercase(),
            full_sites.len().to_string(),
            cce_of_full.len().to_string(),
            collided.to_string(),
        ]);
    }
    print_table(
        "Ablation D: call-chain encryption key collisions",
        &["Program", "Full Sites", "CCE Sites", "Sites In Collisions"],
        &rows,
    );
}
