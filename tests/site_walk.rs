//! Differential tests of the memoised records walk: dense site ids,
//! profiles streamed off a mapped trace file, and `evaluate`, each
//! against the per-record `SiteKey` computation they replaced.

use lifepred::core::{
    evaluate, train, PredictionReport, Profile, ShortLivedSet, SiteConfig, SiteExtractor, SiteId,
    SiteKey, TrainConfig, DEFAULT_THRESHOLD,
};
use lifepred::trace::{shared_registry, Trace};
use lifepred::workloads::{all_workloads, record};
use lifepred_tracefile::{load_trace, save_trace, MappedTrace};
use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;

fn configs() -> [SiteConfig; 4] {
    [
        SiteConfig::default(),
        SiteConfig::last_n(4),
        SiteConfig::encrypted(),
        SiteConfig::size_only(),
    ]
}

/// `(name, training trace, test trace)` of all six workloads, recorded
/// once for the whole file.
fn suite() -> &'static [(String, Trace, Trace)] {
    static SUITE: OnceLock<Vec<(String, Trace, Trace)>> = OnceLock::new();
    SUITE.get_or_init(|| {
        let suite: Vec<_> = all_workloads()
            .iter()
            .map(|w| {
                let registry = shared_registry();
                let training = record(w.as_ref(), 0, registry.clone());
                let test = record(w.as_ref(), w.inputs().len() - 1, registry);
                (w.name().to_owned(), training, test)
            })
            .collect();
        assert_eq!(suite.len(), 6);
        suite
    })
}

#[test]
fn site_ids_partition_records_exactly_as_site_keys_do() {
    for (name, trace, _) in suite() {
        for config in configs() {
            let mut ids = SiteExtractor::from_chains(trace.chains(), config);
            let mut keys = SiteExtractor::from_chains(trace.chains(), config);
            let mut id_of: HashMap<SiteKey, SiteId> = HashMap::new();
            for r in trace.records() {
                let id = ids.site_id(r);
                let key = keys.site_of(r);
                // Same id ⇒ same key …
                assert_eq!(ids.key(id), key, "{name} {}", config.policy);
                // … and same key ⇒ same id, numbered densely.
                let next = SiteId(id_of.len() as u32);
                assert_eq!(*id_of.entry(key).or_insert(next), id, "{name}");
            }
        }
    }
}

#[test]
fn a_profile_streamed_off_the_mapping_equals_one_built_from_the_loaded_trace() {
    let dir = std::env::temp_dir().join(format!("lifepred-site-walk-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tempdir");
    for (name, trace, _) in suite() {
        let path = dir.join(format!("{name}.lpt"));
        save_trace(&path, trace).expect("save");
        let mapped = MappedTrace::open(&path).expect("open");
        let loaded = load_trace(&path).expect("load");
        for config in configs() {
            let streamed = Profile::new(&config, DEFAULT_THRESHOLD)
                .absorb(mapped.record_source().expect("records"))
                .expect("stream");
            let built = Profile::build(&loaded, &config, DEFAULT_THRESHOLD);
            assert_eq!(streamed.program(), built.program());
            assert_eq!(streamed.total_sites(), built.total_sites(), "{name}");
            assert_eq!(streamed.total_bytes(), loaded.stats().total_bytes);
            assert_eq!(streamed.total_objects(), loaded.stats().total_objects);
            for (key, b) in built.sites() {
                let s = &streamed.sites()[key];
                assert_eq!(
                    (s.objects, s.bytes, s.max_lifetime, s.refs),
                    (b.objects, b.bytes, b.max_lifetime, b.refs),
                    "{name} {key:?}"
                );
                assert_eq!(
                    (s.short_objects, s.short_bytes),
                    (b.short_objects, b.short_bytes)
                );
                let bits = |m: &[f64]| m.iter().map(|q| q.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(s.histogram.markers()),
                    bits(b.histogram.markers()),
                    "{name} {key:?}: P² quartiles"
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `evaluate` as it was before sites had ids: every record keyed,
/// hashed and looked up on its own.
fn per_record_oracle(db: &ShortLivedSet, trace: &Trace) -> PredictionReport {
    let mut extractor = SiteExtractor::from_chains(trace.chains(), *db.config());
    let (mut seen, mut used) = (HashSet::new(), HashSet::new());
    let (mut actual, mut correct, mut error) = (0u64, 0u64, 0u64);
    let (mut objects, mut refs, mut total_refs) = (0u64, 0u64, 0u64);
    for r in trace.records() {
        let key = extractor.site_of(r);
        let short = r.lifetime(trace.end_clock()) < db.threshold();
        let size = u64::from(r.size);
        total_refs += r.refs;
        actual += if short { size } else { 0 };
        if db.predicts(&key) {
            objects += 1;
            refs += r.refs;
            *(if short { &mut correct } else { &mut error }) += size;
            used.insert(key.clone());
        }
        seen.insert(key);
    }
    let stats = trace.stats();
    // No numerator is positive where its denominator is zero.
    let pct = |n: u64, d: u64| 100.0 * n as f64 / d.max(1) as f64;
    PredictionReport {
        program: trace.name().to_owned(),
        policy: db.config().policy,
        total_sites: seen.len() as u64,
        actual_short_bytes_pct: pct(actual, stats.total_bytes),
        sites_used: used.len() as u64,
        predicted_short_bytes_pct: pct(correct, stats.total_bytes),
        error_bytes_pct: pct(error, stats.total_bytes),
        predicted_objects_pct: pct(objects, stats.total_objects),
        new_ref_pct: pct(refs, total_refs),
        total_bytes: stats.total_bytes,
        total_objects: stats.total_objects,
    }
}

#[test]
fn evaluate_equals_the_per_record_oracle() {
    for (name, training, test) in suite() {
        for config in configs() {
            let profile = Profile::build(training, &config, DEFAULT_THRESHOLD);
            let db = train(&profile, &TrainConfig::default());
            // True prediction, then self prediction.
            for trace in [test, training] {
                assert_eq!(
                    evaluate(&db, trace),
                    per_record_oracle(&db, trace),
                    "{name} {}",
                    config.policy
                );
            }
        }
    }
}
