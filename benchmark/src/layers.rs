//! The traced run: each workload's call sequence once more, in process,
//! with a span around every call into a layer's public function.
//!
//! One iteration runs the sequence a child runs (under one root span)
//! and then the extra calls some per-layer metrics need (outside the
//! root, so they never count as part of the sequence). Iterations repeat
//! for `--seconds`; every timing is the lower quartile over iterations,
//! every count is exact and must not differ between iterations.

use crate::endtoend::{field, measure, run_child, Measured, Run, Scale};
use crate::spans::{chrome_trace_json, self_times, Recorder};
use crate::spec::{Workload, PER_LAYER};
use crate::stats::{q1, quartiles};
use crate::storm::storm;
use lifepred_adaptive::{EpochConfig, LearnerStats};
use lifepred_core::{
    evaluate, train, Profile, ShortLivedSet, SiteConfig, SiteExtractor, SiteKey, TrainConfig,
    DEFAULT_THRESHOLD,
};
use lifepred_galloc::{GallocConfig, LifepredGlobal};
use lifepred_heap::{
    replay_arena, replay_arena_chunks, replay_arena_online, replay_arena_online_chunks, replay_bsd,
    replay_bsd_chunks, replay_firstfit, replay_firstfit_chunks, replay_firstfit_chunks_observed,
    ReplayConfig, ReplayMeta, ReplayObs, ReplayReport,
};
use lifepred_quantile::P2Quantile;
use lifepred_trace::{shared_registry, ChunkSource, EventChunk, Trace, POOLED_CHUNK_EVENTS};
use lifepred_tracefile::{load_trace, save_trace, MappedTrace};
use lifepred_workloads::{all_workloads, train_test_traces};
use std::alloc::System;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Values the P² estimator is timed over.
const P2_VALUES: u32 = 1_000_000;

/// Per-layer timings of calls that are not part of any workload's call
/// sequence (set-up, or extra calls made only to watch a layer), so
/// they have no share of a repetition's wall time.
pub const OUTSIDE_SEQUENCE: [&str; 7] = [
    "workloads.gen_s",
    "tracefile.iter_verify_s",
    "tracefile.save_trace_s",
    "tracefile.records_walk_s",
    "heap.inmem_replay_s",
    "galloc.native_s",
    "cli.cpu_s",
];

/// How the samples of one metric reduce to its value. Contention only
/// ever slows the host down, so the steady end of a timing is its lower
/// quartile and the steady end of a rate its upper one; a ratio of two
/// measurements taken back to back is already drift-free, so it reports
/// its median, as `crates/bench/benches/galloc.rs` does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reduce {
    LowerQuartile,
    UpperQuartile,
    Median,
}

/// Per-layer samples of one traced run.
#[derive(Debug)]
pub struct Ledger {
    samples: BTreeMap<&'static str, (Reduce, Vec<f64>)>,
    /// Counts and simulated statistics: the same on every iteration
    /// and every run of the same code on the same seed.
    exact: BTreeMap<&'static str, f64>,
    /// Values measured once, or derived from other samples.
    single: BTreeMap<&'static str, f64>,
    /// Whether every exact value repeated and matched the children.
    pub consistent: bool,
}

impl Ledger {
    fn new() -> Ledger {
        Ledger {
            samples: BTreeMap::new(),
            exact: BTreeMap::new(),
            single: BTreeMap::new(),
            consistent: true,
        }
    }

    fn sample(&mut self, name: &'static str, reduce: Reduce, value: f64) {
        self.samples
            .entry(name)
            .or_insert((reduce, Vec::new()))
            .1
            .push(value);
    }

    /// One iteration's seconds (or nanoseconds) spent in a layer.
    fn time(&mut self, name: &'static str, value: f64) {
        self.sample(name, Reduce::LowerQuartile, value);
    }

    /// One iteration's operations per second.
    fn rate(&mut self, name: &'static str, value: f64) {
        self.sample(name, Reduce::UpperQuartile, value);
    }

    /// One iteration's ratio of two measurements taken back to back.
    fn paired(&mut self, name: &'static str, value: f64) {
        self.sample(name, Reduce::Median, value);
    }

    /// Records a count or simulated statistic, which must read the same
    /// on every iteration.
    fn exact(&mut self, name: &'static str, value: f64) {
        if let Some(before) = self.exact.insert(name, value) {
            if before != value {
                self.complain(format!(
                    "{name} changed between iterations: {before} then {value}"
                ));
            }
        }
    }

    /// Records a value measured once or derived from other samples.
    fn set(&mut self, name: &'static str, value: f64) {
        self.single.insert(name, value);
    }

    /// The counts and simulated statistics, for comparing two runs.
    pub fn exact_values(&self) -> Vec<(&'static str, f64)> {
        self.exact.iter().map(|(&name, &v)| (name, v)).collect()
    }

    /// Checks an in-process statistic against what the children printed.
    fn same_as_child(&mut self, key: &str, ours: u64, child_output: &str) {
        match field(child_output, key) {
            Some(theirs) if theirs == ours => {}
            theirs => self.complain(format!(
                "{key}: in process {ours}, the child printed {theirs:?}"
            )),
        }
    }

    fn complain(&mut self, message: String) {
        eprintln!("benchmark: {message}");
        self.consistent = false;
    }

    /// The reduced value of `name`, 0 if it was never sampled.
    pub fn value(&self, name: &str) -> f64 {
        if let Some(&v) = self.exact.get(name).or_else(|| self.single.get(name)) {
            return v;
        }
        match self.samples.get(name) {
            Some((reduce, v)) => {
                let q = quartiles(v);
                match reduce {
                    Reduce::LowerQuartile => q.q1,
                    Reduce::UpperQuartile => q.q3,
                    Reduce::Median => q.median,
                }
            }
            None => 0.0,
        }
    }

    /// Every per-layer metric as `(name, unit, value, samples)`; 0 where
    /// this workload does not reach the layer.
    pub fn metrics(&self) -> Vec<(&'static str, &'static str, f64, usize)> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let n = match self.samples.get(name) {
                    Some((_, v)) => v.len(),
                    None => {
                        usize::from(self.exact.contains_key(name) || self.single.contains_key(name))
                    }
                };
                (name, unit, self.value(name), n)
            })
            .collect()
    }
}

/// Drains a mapped trace's event chunks without replaying them.
fn decode_only(mapped: &MappedTrace) -> Result<u64, String> {
    let mut source = mapped.events();
    let mut chunk = EventChunk::with_capacity(POOLED_CHUNK_EVENTS);
    let mut events = 0u64;
    while source.next_chunk(&mut chunk).map_err(|e| e.to_string())? {
        events += chunk.len() as u64;
    }
    Ok(events)
}

fn meta_of(mapped: &MappedTrace) -> ReplayMeta {
    ReplayMeta {
        program: mapped.name().to_owned(),
        function_calls: mapped.stats().function_calls,
    }
}

/// `MappedTrace::open`: map the file and check every section's CRC.
fn open(rec: &mut Recorder, ledger: &mut Ledger, path: &Path) -> Result<MappedTrace, String> {
    let (mapped, open_s) = rec.span("tracefile.open_verify", |_| MappedTrace::open(path));
    ledger.time("tracefile.open_verify_s", open_s);
    mapped.map_err(|e| format!("{}: {e}", path.display()))
}

/// The simulated statistics every replay reports.
fn replay_statistics(ledger: &mut Ledger, report: &ReplayReport, child_output: &str) {
    ledger.exact("heap.search_steps", report.counts.search_steps as f64);
    ledger.exact("heap.max_heap_bytes", report.max_heap_bytes as f64);
    ledger.exact("heap.arena_alloc_pct", report.arena_alloc_pct());
    ledger.exact("heap.arena_byte_pct", report.arena_byte_pct());
    ledger.exact("heap.frees_invalid", report.counts.frees_invalid as f64);
    ledger.same_as_child("allocations", report.total_allocs, child_output);
    ledger.same_as_child("max heap bytes", report.max_heap_bytes, child_output);
    ledger.same_as_child("arena allocs", report.arena_allocs, child_output);
    if report.counts.frees_invalid != 0 {
        ledger.complain(format!("{} invalid frees", report.counts.frees_invalid));
    }
}

fn learner_statistics(ledger: &mut Ledger, learner: &LearnerStats) {
    ledger.exact("adaptive.epochs", learner.epochs as f64);
    ledger.exact("adaptive.promotions", learner.promotions as f64);
    ledger.exact("adaptive.demotions", learner.demotions as f64);
    ledger.exact("adaptive.mispredictions", learner.mispredictions as f64);
    ledger.exact("adaptive.error_bytes_pct", learner.error_byte_pct());
}

/// The decode-only pass over `mapped`, and the replay's self time: the
/// replay pulls and decodes its chunks itself, so from outside its span
/// contains the decoder; the decode-only pass over the same trace is
/// what that child span would have measured.
fn decode_and_replay_self(
    rec: &mut Recorder,
    ledger: &mut Ledger,
    mapped: &MappedTrace,
    replay_s: f64,
) -> Result<f64, String> {
    let (events, decode_s) = rec.span("tracefile.decode_only", |_| decode_only(mapped));
    let events = events?;
    ledger.time("tracefile.decode_s", decode_s);
    ledger.rate("tracefile.decode_events_per_s", events as f64 / decode_s);
    ledger.exact(
        "tracefile.bytes_per_event",
        mapped.file_len() as f64 / events as f64,
    );
    let self_s = replay_s - decode_s;
    ledger.time("heap.replay_self_s", self_s);
    ledger.time("heap.ns_per_event", self_s * 1e9 / events as f64);
    Ok(self_s)
}

/// Pass 1 of an arena `simulate`: walks the records, maps each object's
/// allocation site through `per_site`.
fn walk_sites<T>(
    mapped: &MappedTrace,
    config: SiteConfig,
    mut per_site: impl FnMut(&SiteKey) -> T,
) -> Result<Vec<T>, String> {
    let mut extractor = SiteExtractor::from_chains(mapped.chain_table(), config);
    let mut out = Vec::new();
    for record in mapped.records().map_err(|e| e.to_string())? {
        let record = record.map_err(|e| e.to_string())?;
        out.push(per_site(&extractor.site_of(&record)));
    }
    Ok(out)
}

/// `records()` of `mapped`, walked and dropped.
fn records_walk(
    rec: &mut Recorder,
    ledger: &mut Ledger,
    mapped: &MappedTrace,
) -> Result<f64, String> {
    let (walked, walk_s) = rec.span("tracefile.records_walk_only", |_| -> Result<u64, String> {
        let mut n = 0u64;
        for record in mapped.records().map_err(|e| e.to_string())? {
            std::hint::black_box(record.map_err(|e| e.to_string())?);
            n += 1;
        }
        Ok(n)
    });
    walked?;
    ledger.time("tracefile.records_walk_s", walk_s);
    Ok(walk_s)
}

/// The sequence of a non-predicting `simulate`: open the trace, replay
/// it. Returns the mapped trace and the replay's duration.
fn open_and_replay(
    rec: &mut Recorder,
    ledger: &mut Ledger,
    root: &'static str,
    path: &Path,
    child: &str,
    replay: impl FnOnce(&MappedTrace) -> Result<ReplayReport, String>,
) -> Result<(MappedTrace, f64), String> {
    rec.span(root, |rec| {
        let mapped = open(rec, ledger, path)?;
        let (report, replay_s) = rec.span("heap.replay", |_| replay(&mapped));
        replay_statistics(ledger, &report?, child);
        Ok((mapped, replay_s))
    })
    .0
}

/// `replay_firstfit`: `simulate test.lpt --allocator first-fit`.
fn firstfit_iteration(
    rec: &mut Recorder,
    ledger: &mut Ledger,
    dir: &Path,
    child: &str,
) -> Result<(), String> {
    let config = ReplayConfig::default();
    let path = dir.join("test.lpt");
    let (mapped, replay_s) = open_and_replay(rec, ledger, "replay_firstfit", &path, child, |m| {
        replay_firstfit_chunks(&meta_of(m), m.events(), &config).map_err(|e| e.to_string())
    })?;
    decode_and_replay_self(rec, ledger, &mapped, replay_s)?;
    // The observed replay against the plain one just timed: what
    // `--metrics-out` would cost, if a workload passed it.
    let registry = lifepred_obs::Registry::new();
    let obs = ReplayObs::register(&registry);
    let (observed, observed_s) = rec.span("obs.replay_observed", |_| {
        replay_firstfit_chunks_observed(&meta_of(&mapped), mapped.events(), &config, &obs)
    });
    observed.map_err(|e| e.to_string())?;
    ledger.paired(
        "obs.replay_overhead_pct",
        (observed_s / replay_s - 1.0) * 100.0,
    );
    Ok(())
}

/// `replay_bsd`: `simulate big.lpt --allocator bsd`.
fn bsd_iteration(
    rec: &mut Recorder,
    ledger: &mut Ledger,
    dir: &Path,
    child: &str,
) -> Result<(), String> {
    let path = dir.join("big.lpt");
    let (mapped, replay_s) = open_and_replay(rec, ledger, "replay_bsd", &path, child, |m| {
        replay_bsd_chunks(&meta_of(m), m.events(), &ReplayConfig::default())
            .map_err(|e| e.to_string())
    })?;
    decode_and_replay_self(rec, ledger, &mapped, replay_s)?;
    drop(mapped);
    // The streaming reader's full verification, the path behind
    // `inspect --verify`.
    let args = [
        "inspect".to_owned(),
        path.display().to_string(),
        "--verify".to_owned(),
    ];
    let (verified, verify_s) = rec.span("tracefile.iter_verify", |_| {
        lifepred_cli::run(&args, &mut Vec::new())
    });
    verified?;
    ledger.time("tracefile.iter_verify_s", verify_s);
    Ok(())
}

/// `train_arena`: `train train.lpt -o pred.json`, then
/// `simulate test.lpt --predictor pred.json`.
fn train_arena_iteration(
    rec: &mut Recorder,
    ledger: &mut Ledger,
    dir: &Path,
    child: &str,
) -> Result<(), String> {
    let sites = SiteConfig::default();
    let pred_path = dir.join("pred.traced.json");
    let (sequence, _) = rec.span("train_arena", |rec| -> Result<_, String> {
        let (trace, load_s) = rec.span("tracefile.load_trace", |_| {
            load_trace(dir.join("train.lpt"))
        });
        let trace = trace.map_err(|e| e.to_string())?;
        ledger.time("tracefile.load_trace_s", load_s);
        let (profile, build_s) = rec.span("core.profile_build", |_| {
            Profile::build_many([&trace], &sites, DEFAULT_THRESHOLD)
        });
        ledger.time("core.profile_build_s", build_s);
        let (db, train_s) = rec.span("core.train", |_| train(&profile, &TrainConfig::default()));
        ledger.time("core.train_s", train_s);
        ledger.exact("core.sites_seen", profile.total_sites() as f64);
        ledger.exact("core.sites_short", db.len() as f64);
        // "pred.json: <n> short-lived sites (of <m> seen, …)"
        ledger.same_as_child("pred.json", db.len() as u64, child);
        let (db, io_s) = rec.span("cli.predictor_io", |_| -> Result<ShortLivedSet, String> {
            std::fs::write(&pred_path, db.to_json()).map_err(|e| e.to_string())?;
            let json = std::fs::read_to_string(&pred_path).map_err(|e| e.to_string())?;
            ShortLivedSet::from_json(&json)
        });
        let db = db?;
        ledger.time("cli.predictor_io_s", io_s);
        let mapped = open(rec, ledger, &dir.join("test.lpt"))?;
        let (predicted, walk_s) = rec.span("core.predict_walk", |_| {
            walk_sites(&mapped, *db.config(), |site| db.predicts(site))
        });
        let predicted = predicted?;
        let (report, replay_s) = rec.span("heap.replay", |_| {
            replay_arena_chunks(
                &meta_of(&mapped),
                mapped.events(),
                &predicted,
                &ReplayConfig::default(),
            )
        });
        let report = report.map_err(|e| e.to_string())?;
        replay_statistics(ledger, &report, child);
        Ok((trace, mapped, walk_s, replay_s))
    });
    let (trace, mapped, walk_s, replay_s) = sequence?;
    decode_and_replay_self(rec, ledger, &mapped, replay_s)?;
    let records_s = records_walk(rec, ledger, &mapped)?;
    ledger.time("core.predict_walk_s", walk_s - records_s);
    let (saved, save_s) = rec.span("tracefile.save_trace", |_| {
        save_trace(dir.join("resaved.lpt"), &trace)
    });
    saved.map_err(|e| e.to_string())?;
    ledger.time("tracefile.save_trace_s", save_s);
    // P² `observe`, the per-object cost inside `Profile::build_many`,
    // over the training trace's object sizes cycled to a fixed count.
    let sizes: Vec<f64> = trace.records().iter().map(|r| f64::from(r.size)).collect();
    let (estimate, p2_s) = rec.span("quantile.p2_observe", |_| {
        let mut p2 = P2Quantile::new(0.75);
        for &x in sizes.iter().cycle().take(P2_VALUES as usize) {
            p2.observe(x);
        }
        p2.estimate()
    });
    std::hint::black_box(estimate);
    ledger.time("quantile.p2_observe_ns", p2_s * 1e9 / f64::from(P2_VALUES));
    Ok(())
}

/// `replay_online`: `simulate test.lpt --predictor online`. `baseline`
/// is the prediction bitmap of a database trained on `test.lpt` itself,
/// built once and untimed: replaying with it is the same arena path
/// without the learner.
fn online_iteration(
    rec: &mut Recorder,
    ledger: &mut Ledger,
    dir: &Path,
    child: &str,
    baseline: &[bool],
) -> Result<(), String> {
    let config = ReplayConfig::default();
    let (sequence, _) = rec.span("replay_online", |rec| -> Result<_, String> {
        let mapped = open(rec, ledger, &dir.join("test.lpt"))?;
        let (sites, walk_s) = rec.span("core.fingerprint_walk", |_| {
            walk_sites(&mapped, SiteConfig::default(), SiteKey::fingerprint)
        });
        let sites = sites?;
        let (online, replay_s) = rec.span("heap.replay", |_| {
            replay_arena_online_chunks(
                &meta_of(&mapped),
                mapped.events(),
                &sites,
                &EpochConfig::default(),
                &config,
            )
        });
        let online = online.map_err(|e| e.to_string())?;
        replay_statistics(ledger, &online.replay, child);
        learner_statistics(ledger, &online.learner);
        ledger.same_as_child("epochs", online.learner.epochs, child);
        ledger.same_as_child("mispredictions", online.learner.mispredictions, child);
        Ok((mapped, walk_s, replay_s))
    });
    let (mapped, walk_s, replay_s) = sequence?;
    let online_self_s = decode_and_replay_self(rec, ledger, &mapped, replay_s)?;
    let records_s = records_walk(rec, ledger, &mapped)?;
    ledger.time("core.fingerprint_walk_s", walk_s - records_s);
    let (arena, arena_s) = rec.span("heap.replay_arena_baseline", |_| {
        replay_arena_chunks(&meta_of(&mapped), mapped.events(), baseline, &config)
    });
    arena.map_err(|e| e.to_string())?;
    let decode_s = replay_s - online_self_s;
    ledger.time("adaptive.learner_s", online_self_s - (arena_s - decode_s));
    Ok(())
}

/// The prediction bitmap `online_iteration` replays its baseline with.
fn self_trained_bitmap(dir: &Path) -> Result<Vec<bool>, String> {
    let trace = load_trace(dir.join("test.lpt")).map_err(|e| e.to_string())?;
    let profile = Profile::build_many([&trace], &SiteConfig::default(), DEFAULT_THRESHOLD);
    let db = train(&profile, &TrainConfig::default());
    Ok(lifepred_heap::prediction_bitmap(&trace, &db))
}

/// Alloc and free events of an in-memory trace.
fn events_of(trace: &Trace) -> u64 {
    let records = trace.records();
    (records.len() + records.iter().filter(|r| r.death_clock.is_some()).count()) as u64
}

/// Events of the twelve traces `report` records: six programs, training
/// and test input each.
pub fn recorded_events() -> u64 {
    all_workloads()
        .iter()
        .map(|w| {
            let (train, test) = train_test_traces(w.as_ref(), shared_registry());
            events_of(&train) + events_of(&test)
        })
        .sum()
}

fn report_in_process(jobs: &str) -> Result<String, String> {
    let args = ["report".to_owned(), "--jobs".to_owned(), jobs.to_owned()];
    let mut out = Vec::new();
    lifepred_cli::run(&args, &mut out)?;
    Ok(String::from_utf8_lossy(&out).into_owned())
}

/// `tables`: what `report` does for each of the six programs, serially.
/// Returns the wall time of the in-process `report --jobs 1`, the
/// serial run this serial sequence is compared with.
fn tables_iteration(rec: &mut Recorder, ledger: &mut Ledger, child: &str) -> Result<f64, String> {
    let sites = SiteConfig::default();
    let tc = TrainConfig::default();
    let config = ReplayConfig::default();
    let mut kept: Vec<(Trace, ShortLivedSet)> = Vec::new();
    rec.span("tables", |rec| {
        // `report` visits the programs one after another, so a layer's
        // time in one iteration is its sum over the six programs.
        let (mut record_s, mut build_s, mut train_s, mut evaluate_s, mut replay_s) =
            (0.0, 0.0, 0.0, 0.0, 0.0);
        let (mut events, mut seen, mut used) = (0u64, 0u64, 0u64);
        let mut learner = LearnerStats::default();
        for w in all_workloads() {
            let ((train_trace, test_trace), s) = rec.span("workloads.record", |_| {
                train_test_traces(w.as_ref(), shared_registry())
            });
            record_s += s;
            events += events_of(&train_trace) + events_of(&test_trace);
            let ((self_profile, train_profile), s) = rec.span("core.profile_build", |_| {
                (
                    Profile::build(&test_trace, &sites, DEFAULT_THRESHOLD),
                    Profile::build(&train_trace, &sites, DEFAULT_THRESHOLD),
                )
            });
            build_s += s;
            let ((self_db, true_db), s) = rec.span("core.train", |_| {
                (train(&self_profile, &tc), train(&train_profile, &tc))
            });
            train_s += s;
            let ((self_report, true_report), s) = rec.span("core.evaluate", |_| {
                (
                    evaluate(&self_db, &test_trace),
                    evaluate(&true_db, &test_trace),
                )
            });
            evaluate_s += s;
            seen += self_report.total_sites;
            used += true_report.sites_used;
            let (online, s) = rec.span("heap.replay", |_| {
                replay_arena_online(&test_trace, &sites, &EpochConfig::default(), &config)
            });
            replay_s += s;
            learner.epochs += online.learner.epochs;
            learner.promotions += online.learner.promotions;
            learner.demotions += online.learner.demotions;
            learner.mispredictions += online.learner.mispredictions;
            learner.error_bytes += online.learner.error_bytes;
            learner.total_bytes += online.learner.total_bytes;
            kept.push((test_trace, true_db));
        }
        ledger.time("workloads.record_s", record_s);
        ledger.time("core.profile_build_s", build_s);
        ledger.time("core.train_s", train_s);
        ledger.time("core.evaluate_s", evaluate_s);
        ledger.time("heap.replay_self_s", replay_s);
        ledger.time("heap.ns_per_event", replay_s * 1e9 / events as f64);
        ledger.exact("trace.recorded_events", events as f64);
        ledger.exact("core.sites_seen", seen as f64);
        ledger.exact("core.sites_short", used as f64);
        learner_statistics(ledger, &learner);
    });
    let ((), inmem_s) = rec.span("heap.inmem_replay", |_| {
        for (trace, db) in &kept {
            std::hint::black_box(replay_firstfit(trace, &config));
            std::hint::black_box(replay_bsd(trace, &config));
            std::hint::black_box(replay_arena(trace, db, &config));
        }
    });
    ledger.time("heap.inmem_replay_s", inmem_s);
    drop(kept);
    let (serial, jobs1_s) = rec.span("bench.report_jobs1", |_| report_in_process("1"));
    let (parallel, jobs2_s) = rec.span("bench.report_jobs2", |_| report_in_process("2"));
    ledger.paired("bench.jobs2_speedup", jobs1_s / jobs2_s);
    for (jobs, table) in [(1, serial?), (2, parallel?)] {
        if table != child {
            ledger.complain(format!(
                "report --jobs {jobs} in process differs from the child's table"
            ));
        }
    }
    Ok(jobs1_s)
}

/// `galloc_storm`: the two-thread storm through the activated
/// allocator, paired with the same storm through `System` (alternating
/// which goes first, so drift cancels in the ratio), then the
/// one-thread storm, which has no hand-off.
fn storm_iteration(rec: &mut Recorder, ledger: &mut Ledger, run: &Run, child: &str, round: usize) {
    let galloc = LifepredGlobal::new();
    let (ops, seed) = (run.scale.storm_ops, run.seed);
    let galloc_storm = |rec: &mut Recorder| {
        rec.span("galloc_storm", |rec| {
            rec.span("galloc.storm", |_| storm(&galloc, 2, ops, seed)).0
        })
        .0
    };
    let system_storm = |rec: &mut Recorder| {
        rec.span("galloc.system_storm", |_| storm(&System, 2, ops, seed))
            .0
    };
    let ((galloc_s, calls), (system_s, _)) = if round & 1 == 0 {
        let g = galloc_storm(rec);
        (g, system_storm(rec))
    } else {
        let s = system_storm(rec);
        (galloc_storm(rec), s)
    };
    let total = (calls.allocs + calls.frees) as f64;
    ledger.rate("galloc.ops_per_s.t2", total / galloc_s);
    ledger.rate("galloc.system_ops_per_s.t2", total / system_s);
    ledger.paired("galloc.vs_system", system_s / galloc_s);
    ledger.same_as_child("alloc calls", calls.allocs, child);
    ledger.same_as_child("free calls", calls.frees, child);
    let ((one_s, one), _) = rec.span("galloc.storm_one_thread", |_| storm(&galloc, 1, ops, seed));
    ledger.rate(
        "galloc.ops_per_s.t1",
        (one.allocs + one.frees) as f64 / one_s,
    );
}

/// Allocator counters after the last storm. Which thread frees a block,
/// and so every counter except the two that must be zero, depends on
/// timing.
fn storm_counters(ledger: &mut Ledger) {
    let stats = lifepred_galloc::stats();
    let fallbacks = stats.fallback_large + stats.fallback_align + stats.fallback_exhausted;
    for (name, value) in [
        ("galloc.magazine_hit_rate", stats.hit_rate()),
        ("galloc.remote_frees", stats.remote_frees as f64),
        ("galloc.seg_resets", stats.seg_resets as f64),
        ("galloc.system_fallbacks", fallbacks as f64),
        ("galloc.epoch_ticks", stats.epoch_ticks as f64),
        ("galloc.wild_frees", stats.wild_frees as f64),
        (
            "galloc.short_free_underflows",
            stats.short_free_underflows as f64,
        ),
    ] {
        ledger.set(name, value);
    }
    // Wild frees are reported, not failed: README, "A race the storm
    // found".
    if stats.short_free_underflows != 0 {
        ledger.complain(format!(
            "{} short-free underflows (double frees)",
            stats.short_free_underflows
        ));
    }
}

/// The traced run of one workload and the children it was compared with.
pub struct Traced {
    pub ledger: Ledger,
    pub reference: Measured,
    pub iterations: usize,
    /// Wall time of the sequence the traced iterations reproduce: the
    /// children's `wall_s`, or for `tables` (whose children use both
    /// cores) the in-process `report --jobs 1`.
    pub sequence_wall_s: f64,
}

impl Traced {
    /// Whether every child and every in-process statistic was right.
    pub fn correct(&self) -> bool {
        self.reference.failed == 0 && self.ledger.consistent
    }
}

/// Sets the workload up once, then for `run.seconds` alternates one
/// untraced child with one traced iteration in process — side by side,
/// so a slow phase of the host hits both and their difference is the
/// program's, not the host's. Writes the spans to `out/trace.json`.
pub fn trace(run: &Run) -> Result<Traced, String> {
    let mut reference = measure(&Run {
        seconds: 0.0,
        scale: Scale {
            setups: 1,
            min_reps: 1,
            ..run.scale
        },
        ..run.clone()
    })?;
    let child = reference.output.clone();
    let child = child.as_str();
    let dir = run.dir();
    let mut ledger = Ledger::new();
    if reference.inputs.gen_events > 0 {
        let gen = &reference.inputs;
        ledger.set("workloads.gen_s", gen.gen_s);
        ledger.set(
            "workloads.gen_events_per_s",
            gen.gen_events as f64 / gen.gen_s,
        );
    }
    let baseline = match run.workload {
        Workload::ReplayOnline => self_trained_bitmap(&dir)?,
        _ => Vec::new(),
    };
    if run.workload == Workload::GallocStorm {
        let native = run_child(&dir, &["native".to_owned()])?;
        if !native.exit_ok {
            ledger.complain("the `lifepred native` child failed".to_owned());
        }
        ledger.set("galloc.native_s", native.wall_s);
        lifepred_galloc::activate_with(GallocConfig::default())?;
    }
    let mut rec = Recorder::new();
    let mut sequence_s = Vec::new();
    let started = Instant::now();
    let mut iterations = 0;
    let min_iterations = if run.scale.quick { 1 } else { 2 };
    while iterations < min_iterations || started.elapsed().as_secs_f64() < run.seconds {
        let child_wall_s = reference.repeat(run)?;
        let first_span = rec.spans().len();
        // `tables` children use both cores; its serial traced sequence
        // is compared with the serial report instead.
        let untraced_s = match run.workload {
            Workload::ReplayFirstfit => {
                firstfit_iteration(&mut rec, &mut ledger, &dir, child).map(|()| child_wall_s)
            }
            Workload::ReplayBsd => {
                bsd_iteration(&mut rec, &mut ledger, &dir, child).map(|()| child_wall_s)
            }
            Workload::TrainArena => {
                train_arena_iteration(&mut rec, &mut ledger, &dir, child).map(|()| child_wall_s)
            }
            Workload::ReplayOnline => {
                online_iteration(&mut rec, &mut ledger, &dir, child, &baseline)
                    .map(|()| child_wall_s)
            }
            Workload::Tables => tables_iteration(&mut rec, &mut ledger, child),
            Workload::GallocStorm => {
                storm_iteration(&mut rec, &mut ledger, run, child, iterations);
                Ok(child_wall_s)
            }
        }?;
        // What the sequence spent outside every layer's span: process
        // start, argument parsing, rendering, unmapping and exit (the
        // child's wall time beyond the root span) plus the root span's
        // self time. Child and iteration ran back to back, so their
        // difference is paired.
        let (root, root_self_s) = rec
            .spans()
            .iter()
            .zip(self_times(rec.spans()))
            .skip(first_span)
            .find(|(s, _)| s.parent.is_none() && s.name == run.workload.name())
            .expect("every iteration records its root span");
        let root_s = root.duration_s();
        ledger.paired("cli.unattributed_s", untraced_s - (root_s - root_self_s));
        ledger.paired(
            "bench.trace_overhead_pct",
            (root_s / untraced_s - 1.0) * 100.0,
        );
        sequence_s.push(untraced_s);
        iterations += 1;
    }
    if run.workload == Workload::GallocStorm {
        storm_counters(&mut ledger);
    }
    ledger.set("cli.cpu_s", q1(&reference.cpu_s));

    let trace_path = crate::endtoend::out_dir().join("trace.json");
    std::fs::write(&trace_path, chrome_trace_json(rec.spans()))
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    Ok(Traced {
        ledger,
        reference,
        iterations,
        sequence_wall_s: q1(&sequence_s),
    })
}
