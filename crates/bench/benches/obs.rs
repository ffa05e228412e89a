//! Overhead of the observability layer on the `simulate` pipeline:
//! `simulate_file`, the function `lifepred simulate --predictor
//! db.json` runs per trace (one `replay`: the records walk for each
//! object's prediction, then events → arena replay), with vs without `--metrics-out` recording. Per-event
//! metrics batch into plain local fields and publish once at end of
//! stream, so the added per-event cost is two clock reads for the
//! latency histogram — most of it — plus a handful of arithmetic ops
//! and exact per-object lifetime tracking (a birth-clock table the
//! bare replay does not keep). This is the build `lifepred` runs.
//!
//! A self-timed harness (we want two directly comparable ops/sec
//! numbers) times the two configurations
//! back to back within every round, reports the median of the paired
//! per-round overhead ratios, and writes `results/BENCH_obs.json` at
//! the workspace root so the overhead is a recorded measurement, not
//! prose. Nothing gates it; the file records what was measured.
//!
//! Run with `cargo bench -p lifepred-bench --bench obs`; set
//! `LIFEPRED_BENCH_SMOKE=1` for a fast CI smoke run (it exercises the
//! harness and prints its noisy numbers but leaves the recorded
//! `results/BENCH_obs.json` untouched — only full runs update the
//! trajectory).

use lifepred_bench::simulate_file;
use lifepred_core::{train, Profile, SiteConfig, TrainConfig, DEFAULT_THRESHOLD};
use lifepred_heap::{ArenaConfig, ReplayPlan};
use lifepred_trace::{Trace, TraceSession};
use lifepred_tracefile::save_trace;
use std::path::Path;
use std::time::Instant;

/// Alloc/free pairs in the synthetic trace (divided by 10 in smoke mode).
const PAIRS: usize = 50_000;

/// Paired measurement rounds.
const SIM_ROUNDS: usize = 101;

fn smoke() -> bool {
    // `cargo bench -- --test` asks every bench for a functional check,
    // not a measurement — same contract as the env override.
    std::env::var_os("LIFEPRED_BENCH_SMOKE").is_some() || std::env::args().any(|a| a == "--test")
}

/// A mostly-short-lived workload with a drizzle of long-lived objects,
/// the shape the arena allocator is designed for.
fn workload(pairs: usize) -> Trace {
    let s = TraceSession::new("bench-obs");
    let mut kept = Vec::new();
    {
        let _g = s.enter("short");
        for i in 0..pairs {
            let a = s.alloc(48);
            let b = s.alloc(16);
            s.free(a);
            s.free(b);
            if i % 100 == 0 {
                let _g2 = s.enter("keeper");
                kept.push(s.alloc(64));
            }
        }
    }
    for id in kept {
        s.free(id);
    }
    s.finish()
}

/// Ops/sec for baseline `a` vs observed `b`, plus the observed
/// overhead in percent, from paired rounds.
///
/// Shared-machine noise here dwarfs the effect being measured — whole
/// runs drift by double-digit percentages — so unpaired statistics
/// (best-of or median per side) let the machine state at each side's
/// chosen round swing the comparison by more than the overhead itself.
/// Instead every round times both configurations back to back,
/// flipping which goes first, and yields one overhead ratio
/// `t_b / t_a` measured under near-identical conditions; the reported
/// overhead is the median of those paired ratios. Throughputs are
/// median-of-rounds, for scale.
fn paired_overhead(
    rounds: usize,
    ops: u64,
    mut a: impl FnMut(),
    mut b: impl FnMut(),
) -> (f64, f64, f64) {
    let time = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64()
    };
    let (mut times_a, mut times_b, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..rounds {
        let (ta, tb) = if round % 2 == 0 {
            let ta = time(&mut a);
            (ta, time(&mut b))
        } else {
            let tb = time(&mut b);
            (time(&mut a), tb)
        };
        times_a.push(ta);
        times_b.push(tb);
        ratios.push(tb / ta);
    }
    let median = |times: &mut Vec<f64>| {
        times.sort_by(f64::total_cmp);
        times[times.len() / 2]
    };
    (
        ops as f64 / median(&mut times_a),
        ops as f64 / median(&mut times_b),
        100.0 * (median(&mut ratios) - 1.0),
    )
}

fn main() {
    // `cargo test --benches` passes harness flags; a smoke run of the
    // real measurement is what we want there too, just shorter.
    let pairs = if smoke() { PAIRS / 10 } else { PAIRS };
    let sim_rounds = if smoke() { SIM_ROUNDS / 10 } else { SIM_ROUNDS };

    // Offline training happens once, before the measured region — the
    // CLI does it in a separate `train` invocation.
    let trace = workload(pairs);
    let db = train(
        &Profile::build(&trace, &SiteConfig::default(), DEFAULT_THRESHOLD),
        &TrainConfig::default(),
    );
    let n_events = trace.end_seq();
    let lpt = std::env::temp_dir().join(format!("lifepred-bench-obs-{}.lpt", std::process::id()));
    save_trace(&lpt, &trace).expect("write trace");
    let lpt_path = lpt.to_str().expect("utf-8 temp path");
    // One full `simulate` of the file, with (the `--metrics-out`
    // configuration) or without metrics.
    let arena = ArenaConfig::default();
    let plan = ReplayPlan::Arena { db: &db, arena };
    let simulate_once = |want_metrics: bool| {
        simulate_file(lpt_path, &plan, want_metrics).expect("simulate");
    };
    // Warm both configurations once before timing.
    simulate_once(false);
    simulate_once(true);

    let (replay_base, replay_obs, replay_overhead) = paired_overhead(
        sim_rounds,
        n_events,
        || simulate_once(false),
        || simulate_once(true),
    );
    std::fs::remove_file(&lpt).ok();

    let host = lifepred_bench::BenchHost::probe();
    let json = format!(
        "{{\n  \
           \"schema\": \"lifepred-bench-obs-v2\",\n  \
           \"smoke\": {},\n  \
           {host_fields},\n  \
           \"simulate\": {{\n    \
             \"events\": {n_events},\n    \
             \"baseline_ops_per_sec\": {replay_base:.0},\n    \
             \"observed_ops_per_sec\": {replay_obs:.0},\n    \
             \"overhead_pct\": {replay_overhead:.2}\n  \
           }}\n}}\n",
        smoke(),
        host_fields = host.json_fields(),
    );
    println!("simulate: {replay_base:.0} events/s bare, {replay_obs:.0} observed ({replay_overhead:+.2}% overhead)");
    // A smoke run exercises the harness but is far too short to
    // measure overhead; only full runs update the recorded trajectory.
    if smoke() {
        println!("smoke mode: results/BENCH_obs.json left untouched");
    } else {
        let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/BENCH_obs.json");
        std::fs::write(&out, &json).expect("write results/BENCH_obs.json");
        println!("wrote {}", out.display());
    }
}
