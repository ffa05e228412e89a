//! Regenerates every table of the paper in one run (shared traces).

use lifepred_bench::{analyze, build_suite, f1, f2, print_table, Analysis, SuiteEntry};
use lifepred_core::{
    evaluate, train, LifetimeDistribution, Profile, ShortLivedSet, SiteConfig, SitePolicy,
    TrainConfig, DEFAULT_THRESHOLD,
};
use lifepred_heap::{
    arena_costs, bsd_costs, firstfit_costs, replay, ArenaConfig, PredictorKind, ReplayPlan,
    ReplayReport,
};
use lifepred_trace::Trace;

fn main() {
    let t0 = std::time::Instant::now();
    let suite = build_suite();
    let analyses: Vec<Analysis> = suite
        .iter()
        .map(|e| analyze(e, &SiteConfig::default()))
        .collect();
    eprintln!("[suite built in {:?}]", t0.elapsed());

    table1(&suite);
    table2(&suite);
    table3(&suite);
    table4(&suite, &analyses);
    table5(&suite, &analyses);
    table6(&suite);
    table7(&suite, &analyses);
    table8(&suite, &analyses);
    table9(&suite, &analyses);
    eprintln!("[all tables in {:?}]", t0.elapsed());
}

fn table1(suite: &[SuiteEntry]) {
    println!("== Table 1: test programs ==");
    for e in suite {
        println!("\n{}: {}", e.name.to_uppercase(), e.description);
    }
}

fn table2(suite: &[SuiteEntry]) {
    let rows: Vec<Vec<String>> = suite
        .iter()
        .map(|e| {
            let s = e.test.stats();
            vec![
                e.name.to_uppercase(),
                f1(s.instructions as f64 / 1e6),
                f2(s.function_calls as f64 / 1e6),
                f2(s.total_bytes as f64 / 1e6),
                f2(s.total_objects as f64 / 1e6),
                format!("{}", s.max_live_bytes / 1000),
                format!("{}", s.max_live_objects),
                f1(s.heap_ref_pct()),
            ]
        })
        .collect();
    print_table(
        "Table 2: memory allocation behaviour (test inputs)",
        &[
            "Program",
            "Instr (x10^6)",
            "Calls (x10^6)",
            "Bytes (x10^6)",
            "Objects (x10^6)",
            "MaxBytes (x10^3)",
            "MaxObjects",
            "HeapRefs (%)",
        ],
        &rows,
    );
}

fn table3(suite: &[SuiteEntry]) {
    let mut rows = Vec::new();
    for e in suite {
        let lifetimes = LifetimeDistribution::from_trace(&e.test);
        let q = lifetimes.quartiles_p2();
        let qe = lifetimes.quartiles_exact();
        rows.push(vec![
            e.name.to_uppercase(),
            q[0].to_string(),
            q[1].to_string(),
            q[2].to_string(),
            q[3].to_string(),
            q[4].to_string(),
            format!("(exact 75%: {})", qe[3]),
        ]);
    }
    print_table(
        "Table 3: object lifetime quantiles in bytes (P2 histogram)",
        &["Program", "0% (min)", "25%", "50%", "75%", "100% (max)", ""],
        &rows,
    );
}

fn table4(suite: &[SuiteEntry], analyses: &[Analysis]) {
    let rows: Vec<Vec<String>> = suite
        .iter()
        .zip(analyses)
        .map(|(e, a)| {
            vec![
                e.name.to_uppercase(),
                a.self_report.total_sites.to_string(),
                f1(a.self_report.actual_short_bytes_pct),
                a.self_report.sites_used.to_string(),
                f1(a.self_report.predicted_short_bytes_pct),
                f2(a.self_report.error_bytes_pct),
                a.true_report.sites_used.to_string(),
                f1(a.true_report.predicted_short_bytes_pct),
                f2(a.true_report.error_bytes_pct),
            ]
        })
        .collect();
    print_table(
        "Table 4: bytes predicted short-lived by site+size (threshold 32 KB)",
        &[
            "Program",
            "Total Sites",
            "Actual Short (%)",
            "Self Sites",
            "Self Pred (%)",
            "Self Err (%)",
            "True Sites",
            "True Pred (%)",
            "True Err (%)",
        ],
        &rows,
    );
}

fn table5(suite: &[SuiteEntry], analyses: &[Analysis]) {
    let rows: Vec<Vec<String>> = suite
        .iter()
        .zip(analyses)
        .map(|(e, a)| {
            let size_only = analyze(e, &SiteConfig::size_only());
            vec![
                e.name.to_uppercase(),
                f1(size_only.self_report.actual_short_bytes_pct),
                f1(size_only.self_report.predicted_short_bytes_pct),
                size_only.self_report.sites_used.to_string(),
                f1(a.self_report.predicted_short_bytes_pct),
            ]
        })
        .collect();
    print_table(
        "Table 5: size-only prediction (self), site+size for reference",
        &[
            "Program",
            "Actual Short (%)",
            "Size-only Pred (%)",
            "Sites Used",
            "Site+Size Pred (%)",
        ],
        &rows,
    );
}

fn table6(suite: &[SuiteEntry]) {
    let lengths: Vec<SitePolicy> = (1..=7)
        .map(SitePolicy::LastN)
        .chain([SitePolicy::Complete])
        .collect();
    let mut rows = Vec::new();
    for policy in &lengths {
        let config = SiteConfig {
            policy: *policy,
            ..SiteConfig::default()
        };
        let mut row = vec![policy.to_string()];
        for e in suite {
            let profile = Profile::build(&e.test, &config, DEFAULT_THRESHOLD);
            let db = train(&profile, &TrainConfig::default());
            let report = evaluate(&db, &e.test);
            row.push(format!("{:.0}", report.predicted_short_bytes_pct));
            row.push(format!("{:.0}", report.new_ref_pct));
        }
        rows.push(row);
    }
    let mut headers: Vec<String> = vec!["Chain".to_owned()];
    for e in suite {
        headers.push(format!("{} P%", e.name));
        headers.push(format!("{} R%", e.name));
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    print_table(
        "Table 6: call-chain length vs prediction (self; P=pred bytes, R=new refs)",
        &header_refs,
        &rows,
    );
}

fn replayed(trace: &Trace, plan: ReplayPlan<'_>) -> ReplayReport {
    replay(trace, &plan, None).expect("valid trace").0
}

/// The paper's arena allocator (16 x 4 KB) consulting `db`.
fn arena(db: &ShortLivedSet) -> ReplayPlan<'_> {
    let arena = ArenaConfig::default();
    ReplayPlan::Arena { db, arena }
}

fn table7(suite: &[SuiteEntry], analyses: &[Analysis]) {
    let rows: Vec<Vec<String>> = suite
        .iter()
        .zip(analyses)
        .map(|(e, a)| {
            let r = replayed(&e.test, arena(&a.true_db));
            vec![
                e.name.to_uppercase(),
                f1(r.total_allocs as f64 / 1000.0),
                f1(r.arena_alloc_pct()),
                f1(r.non_arena_alloc_pct()),
                (r.total_bytes / 1024).to_string(),
                f1(r.arena_byte_pct()),
                f1(r.non_arena_byte_pct()),
            ]
        })
        .collect();
    print_table(
        "Table 7: arena utilization (true prediction, 16 x 4 KB arenas)",
        &[
            "Program",
            "Allocs (1000s)",
            "Arena Allocs (%)",
            "Non-arena (%)",
            "Bytes (KB)",
            "Arena Bytes (%)",
            "Non-arena (%)",
        ],
        &rows,
    );
}

fn table8(suite: &[SuiteEntry], analyses: &[Analysis]) {
    let rows: Vec<Vec<String>> = suite
        .iter()
        .zip(analyses)
        .map(|(e, a)| {
            let ff = replayed(&e.test, ReplayPlan::FirstFit);
            let self_arena = replayed(&e.test, arena(&a.self_db));
            let true_arena = replayed(&e.test, arena(&a.true_db));
            let pct = |x: u64| 100.0 * x as f64 / ff.max_heap_bytes as f64;
            vec![
                e.name.to_uppercase(),
                (ff.max_heap_bytes / 1024).to_string(),
                (self_arena.max_heap_bytes / 1024).to_string(),
                f1(pct(self_arena.max_heap_bytes)),
                (true_arena.max_heap_bytes / 1024).to_string(),
                f1(pct(true_arena.max_heap_bytes)),
            ]
        })
        .collect();
    print_table(
        "Table 8: maximum heap sizes (KB), arena area included",
        &[
            "Program",
            "First-fit",
            "Self Arena",
            "Self/FF (%)",
            "True Arena",
            "True/FF (%)",
        ],
        &rows,
    );
}

fn table9(suite: &[SuiteEntry], analyses: &[Analysis]) {
    let rows: Vec<Vec<String>> = suite
        .iter()
        .zip(analyses)
        .map(|(e, a)| {
            let bsd = bsd_costs(&replayed(&e.test, ReplayPlan::Bsd));
            let ff = firstfit_costs(&replayed(&e.test, ReplayPlan::FirstFit));
            let ar = replayed(&e.test, arena(&a.true_db));
            let len4 = arena_costs(&ar, PredictorKind::Len4);
            let cce = arena_costs(&ar, PredictorKind::Cce);
            let c = |x: f64| format!("{x:.0}");
            vec![
                e.name.to_uppercase(),
                c(bsd.alloc_instr),
                c(bsd.free_instr),
                c(bsd.total()),
                c(ff.alloc_instr),
                c(ff.free_instr),
                c(ff.total()),
                c(len4.alloc_instr),
                c(len4.free_instr),
                c(len4.total()),
                c(cce.alloc_instr),
                c(cce.free_instr),
                c(cce.total()),
            ]
        })
        .collect();
    print_table(
        "Table 9: instructions per alloc/free (arena uses true prediction)",
        &[
            "Program", "BSD a", "BSD f", "BSD a+f", "FF a", "FF f", "FF a+f", "Len4 a", "Len4 f",
            "Len4 a+f", "CCE a", "CCE f", "CCE a+f",
        ],
        &rows,
    );
}
