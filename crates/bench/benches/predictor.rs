//! Microbenchmarks of prediction machinery: site extraction, database
//! lookup, P² maintenance, chain keying, the online learner's epoch
//! roll, and the per-object cost of a whole `Profile::build` /
//! `evaluate` / online replay over a generated server trace.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use lifepred_adaptive::{EpochConfig, OnlineLearner};
use lifepred_core::{
    evaluate, train, Profile, SiteConfig, SiteExtractor, TrainConfig, DEFAULT_THRESHOLD,
};
use lifepred_heap::{replay, ArenaConfig, ReplayPlan};
use lifepred_quantile::P2Histogram;
use lifepred_trace::{eliminate_cycles, shared_registry, Trace};
use lifepred_tracefile::trace_from_bytes;
use lifepred_workloads::server::sim::SimConfig;
use lifepred_workloads::server::synth::generate_lpt;
use lifepred_workloads::{by_name, record};

fn sample_trace() -> Trace {
    let w = by_name("espresso").expect("workload");
    record(w.as_ref(), 0, shared_registry())
}

fn site_extraction(c: &mut Criterion) {
    let trace = sample_trace();
    let records = trace.records();

    let mut group = c.benchmark_group("site_extraction");
    for (label, cfg) in [
        ("complete", SiteConfig::default()),
        ("len4", SiteConfig::last_n(4)),
        ("cce", SiteConfig::encrypted()),
        ("size_only", SiteConfig::size_only()),
    ] {
        group.bench_function(label, |b| {
            let mut extractor = SiteExtractor::from_chains(trace.chains(), cfg);
            let mut i = 0usize;
            b.iter(|| {
                let key = extractor.site_of(&records[i % records.len()]);
                black_box(key);
                i += 1;
            });
        });
    }
    group.finish();

    // The dense id the walks use: no key is built or cloned once a
    // site has been seen.
    let mut group = c.benchmark_group("site_id");
    for (label, cfg) in [
        ("complete", SiteConfig::default()),
        ("len4", SiteConfig::last_n(4)),
        ("cce", SiteConfig::encrypted()),
        ("size_only", SiteConfig::size_only()),
    ] {
        group.bench_function(label, |b| {
            let mut extractor = SiteExtractor::from_chains(trace.chains(), cfg);
            let mut i = 0usize;
            b.iter(|| {
                let id = extractor.site_id(&records[i % records.len()]);
                black_box(id);
                i += 1;
            });
        });
    }
    group.finish();
}

/// What `lifepred gen --events 1m --seed 1` writes, loaded: the
/// benchmark's training trace (464 247 objects, 11 588 sites).
fn server_trace() -> Trace {
    let config = SimConfig::for_events(1_000_000, 1);
    let (_, lpt) = generate_lpt(&config, std::io::Cursor::new(Vec::new())).expect("generate");
    trace_from_bytes(lpt.get_ref()).expect("decode generated trace")
}

fn train_walks(c: &mut Criterion) {
    let trace = server_trace();
    let cfg = SiteConfig::default();
    let db = train(
        &Profile::build(&trace, &cfg, DEFAULT_THRESHOLD),
        &TrainConfig::default(),
    );
    let mut group = c.benchmark_group("server_1m");
    group.throughput(Throughput::Elements(trace.records().len() as u64));
    group.bench_function("profile_build", |b| {
        b.iter(|| Profile::build(&trace, &cfg, DEFAULT_THRESHOLD).total_sites());
    });
    group.bench_function("evaluate", |b| {
        b.iter(|| evaluate(&db, &trace).sites_used);
    });
    // What `simulate --predictor online` runs: the learner in the loop,
    // each allocation's site read off the records as it comes.
    let plan = ReplayPlan::ArenaOnline {
        sites: cfg,
        epoch: EpochConfig::default(),
        arena: ArenaConfig::default(),
    };
    group.bench_function("replay_online", |b| {
        b.iter(|| replay(&trace, &plan, None).expect("valid trace"));
    });
    group.finish();
}

/// One epoch of the server trace's shape: some 12 000 sites known, a
/// few dozen of them freeing anything before the epoch rolls. The roll
/// must cost what the active sites cost.
fn epoch_roll(c: &mut Criterion) {
    const SITES: u32 = 12_000;
    const ACTIVE: u32 = 32;
    let mut learner = OnlineLearner::new(EpochConfig::default());
    for site in 0..SITES {
        learner.record_alloc(site, 64);
    }
    let mut group = c.benchmark_group("online/epoch_roll");
    group.throughput(Throughput::Elements(u64::from(ACTIVE)));
    group.bench_function("sites=12k,active=32", |b| {
        let mut first = 0;
        b.iter(|| {
            for site in first..first + ACTIVE {
                learner.record_free(site % SITES, 64, learner.clock(), false);
            }
            first = (first + ACTIVE) % SITES;
            learner.roll_epoch();
        });
    });
    group.finish();
    black_box(learner.stats());
}

fn database_lookup(c: &mut Criterion) {
    let trace = sample_trace();
    let cfg = SiteConfig::default();
    let profile = Profile::build(&trace, &cfg, DEFAULT_THRESHOLD);
    let db = train(&profile, &TrainConfig::default());
    let mut extractor = SiteExtractor::from_chains(trace.chains(), cfg);
    let keys: Vec<_> = trace
        .records()
        .iter()
        .map(|r| extractor.site_of(r))
        .collect();

    c.bench_function("database_predicts", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let hit = db.predicts(&keys[i % keys.len()]);
            black_box(hit);
            i += 1;
        });
    });
}

fn quantile_maintenance(c: &mut Criterion) {
    c.bench_function("p2_observe", |b| {
        let mut h = P2Histogram::quartiles();
        let mut x = 0u64;
        b.iter(|| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.observe(black_box((x >> 40) as f64));
        });
    });
}

fn chain_keying(c: &mut Criterion) {
    let trace = sample_trace();
    let chains: Vec<_> = trace.chains().iter().map(|(_, c)| c.clone()).collect();

    let mut group = c.benchmark_group("chain_ops");
    group.bench_function("encryption_key", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let k = chains[i % chains.len()].encryption_key();
            black_box(k);
            i += 1;
        });
    });
    group.bench_function("eliminate_cycles", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let v = eliminate_cycles(chains[i % chains.len()].frames());
            black_box(v);
            i += 1;
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    site_extraction,
    train_walks,
    epoch_roll,
    database_lookup,
    quantile_maintenance,
    chain_keying
);
criterion_main!(benches);
