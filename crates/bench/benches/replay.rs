//! The replay performance ledger: measured evidence for the
//! optimisations of the indexed-replay stack.
//!
//! 1. **firstfit** — the seed's linear first-fit scan
//!    ([`LinearFirstFit`]) vs the tree-indexed [`FirstFit`] on two
//!    fragmentation workloads built to be the linear scan's worst
//!    case: a lattice of holes that every larger allocation must walk
//!    past — once with small holes, once with holes in the request's
//!    own log2 size class (what a size-binned index cannot skip).
//!    Warmup asserts both heaps agree on every observable
//!    (`OpCounts` including `search_steps`, `max_heap_bytes`) before
//!    any timing, so the speedup is measured between *provably
//!    equivalent* implementations.
//! 2. **simulate** — the end-to-end `lifepred simulate` pipeline
//!    ([`simulate_file`]: records → prediction bitmap, events →
//!    chunked arena replay) over several copies of a trace, fanned out with
//!    [`lifepred_bench::run_jobs`] at `--jobs` 1, 2 and 4. Speedup
//!    here is bounded by the host's core count, which is recorded in
//!    the output.
//! 3. **server** — `lifepred gen` streams a synthetic server trace
//!    (10⁷ events on full runs); the file is verified once up front
//!    (recorded as `verify_once_secs`), then [`MappedTrace`] decodes it
//!    zero-copy out of the verified mapping and the first-fit allocator
//!    replays it end to end. At this size the trace no longer fits any
//!    cache. Decode has one implementation, so nothing races it here;
//!    the frozen benchmark's `tracefile.*` layer metrics are its
//!    yardstick.
//!
//! The harness mirrors `benches/obs.rs`: self-timed paired rounds,
//! median-of-rounds throughputs, median-of-paired-ratios speedups, and
//! `results/BENCH_replay.json` written only on full runs. Run with
//! `cargo bench -p lifepred-bench --bench replay`; set
//! `LIFEPRED_BENCH_SMOKE=1` (or pass `--test`) for the short CI smoke
//! run that leaves the recorded results untouched.

use lifepred_core::{train, Profile, SiteConfig, TrainConfig, DEFAULT_THRESHOLD};
use lifepred_heap::reference::LinearFirstFit;
use lifepred_heap::{replay, Addr, ArenaConfig, FirstFit, ReplayMeta, ReplayPlan};
use lifepred_sweep::{simulate_file, SimBackend};
use lifepred_trace::{
    ChunkSource, EventChunk, EventKind, Trace, TraceSession, POOLED_CHUNK_EVENTS,
};
use lifepred_tracefile::{MappedTrace, TraceWriter};
use lifepred_workloads::server::sim::SimConfig;
use lifepred_workloads::server::synth::generate_lpt;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Alloc/free pairs in the simulate trace.
const PAIRS: usize = 50_000;

/// Kept blocks in the fragmentation lattice; every churn allocation
/// forces the linear scan past all of them.
const KEEPERS: usize = 6_000;

/// Churn allocations walking the lattice.
const CHURN: usize = 8_000;

/// Trace images fanned out by the simulate-scaling section.
const SIM_TRACES: usize = 4;

/// Paired rounds for the firstfit comparison (each round replays the
/// full quadratic linear scan, so fewer rounds keep the run bounded).
const FF_ROUNDS: usize = 15;

/// Rounds for the simulate sweep, smoke mode included; each round
/// runs 3 × [`SIM_TRACES`] full pipelines.
const SIM_ROUNDS: usize = 11;

/// Events in the generated server trace for the scale section
/// (divided by 100 in smoke mode).
const SCALE_EVENTS: u64 = 10_000_000;

/// Decode rounds over the scale trace.
const SCALE_ROUNDS: usize = 7;

fn smoke() -> bool {
    // `cargo bench -- --test` asks every bench for a functional check,
    // not a measurement — same contract as the env override.
    std::env::var_os("LIFEPRED_BENCH_SMOKE").is_some() || std::env::args().any(|a| a == "--test")
}

fn rounds(full: usize) -> usize {
    if smoke() {
        (full / 10).max(3)
    } else {
        full
    }
}

/// The obs-bench workload shape: mostly short-lived pairs with a
/// drizzle of keepers — representative input for the end-to-end
/// pipeline.
fn workload(pairs: usize) -> Trace {
    let s = TraceSession::new("bench-replay");
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

/// The linear scan's worst case: a heap shaped
/// `[hole lattice][victim slot][live guard][small wilderness]` where
/// every churn allocation fits *only* the victim slot, and the roving
/// pointer is parked just past it.
///
/// The lattice is `keepers` live 32-byte blocks alternating with
/// `hole`-byte holes (freed fillers that cannot coalesce because both
/// neighbours stay live). Once the `victim`-byte block after the last
/// hole is freed the two coalesce into the slot, and the churn request
/// is sized to need exactly that. Block layout math (`HEADER = 8`,
/// `ALIGN = 8`, `MIN_SPLIT = 16`) for [`SMALL_HOLES`]: a 32-byte hole
/// occupies 40 heap bytes and the 16384-byte victim 16392, so the slot
/// holds 16432 bytes — what a 16424-byte churn request needs. Churn
/// placements therefore never split, the rover lands on the live guard
/// after each placement and stays there across the free (no coalesce
/// can pull it back), and the wilderness above the guard stays under
/// one 8192-byte page so it never satisfies a churn request (both
/// lattices ask for more than a page). Every churn allocation thus
/// wraps and walks the entire lattice before finding the slot; the
/// tree-indexed heap answers the same search in O(log n).
fn frag_workload(keepers: usize, churn: usize, (hole, victim): (u32, u32)) -> Trace {
    let block = |size: u32| (size + 8).next_multiple_of(8);
    let slot = block(hole) + block(victim);
    let s = TraceSession::new("bench-frag");
    let mut kept = Vec::new();
    let mut holes = Vec::new();
    {
        let _g = s.enter("lattice");
        for _ in 0..keepers {
            kept.push(s.alloc(32));
            holes.push(s.alloc(hole));
        }
    }
    let victim = {
        let _g = s.enter("victim");
        s.alloc(victim)
    };
    let guard = {
        let _g = s.enter("guard");
        s.alloc(32)
    };
    for id in holes {
        s.free(id);
    }
    s.free(victim);
    {
        let _g = s.enter("churn");
        for _ in 0..churn {
            let a = s.alloc(slot - 8);
            s.free(a);
        }
    }
    s.free(guard);
    for id in kept {
        s.free(id);
    }
    s.finish()
}

/// `(hole, victim)` sizes of the original lattice: 40-byte holes, far
/// below the 16432-byte request's size class.
const SMALL_HOLES: (u32, u32) = (32, 16_384);

/// `(hole, victim)` sizes of the lattice whose 8200-byte holes share
/// the 12304-byte request's log2 size class (8192..16384) yet are all
/// too small: an index binned by size class must walk every one.
const SAME_CLASS_HOLES: (u32, u32) = (8192, 4096);

/// Replays `trace` through the seed's linear first-fit, returning the
/// observables the equivalence check compares.
fn replay_linear(trace: &Trace) -> (u64, u64) {
    let mut heap = LinearFirstFit::new();
    let mut slots: Vec<Option<Addr>> = vec![None; trace.records().len()];
    for event in trace.events() {
        match event.kind {
            EventKind::Alloc => {
                let size = trace.records()[event.record].size;
                slots[event.record] = Some(heap.alloc(size));
            }
            EventKind::Free => {
                if let Some(addr) = slots[event.record].take() {
                    heap.free(addr);
                }
            }
        }
    }
    (heap.counts().search_steps, heap.max_heap_bytes())
}

/// Same loop over the indexed heap.
fn replay_indexed(trace: &Trace) -> (u64, u64) {
    let mut heap = FirstFit::new();
    let mut slots: Vec<Option<Addr>> = vec![None; trace.records().len()];
    for event in trace.events() {
        match event.kind {
            EventKind::Alloc => {
                let size = trace.records()[event.record].size;
                slots[event.record] = Some(heap.alloc(size));
            }
            EventKind::Free => {
                if let Some(addr) = slots[event.record].take() {
                    heap.free(addr);
                }
            }
        }
    }
    (heap.counts().search_steps, heap.max_heap_bytes())
}

/// Times `before` and `after` back to back within every round (order
/// alternating) and reports median seconds for each plus the median of
/// the paired per-round speedups `t_before / t_after`. Pairing keeps
/// shared-machine drift from landing on one side of the comparison.
fn paired_speedup(
    rounds: usize,
    mut before: impl FnMut(),
    mut after: impl FnMut(),
) -> (f64, f64, f64) {
    let time = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64()
    };
    let (mut tb, mut ta, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..rounds {
        let (b, a) = if round % 2 == 0 {
            let b = time(&mut before);
            (b, time(&mut after))
        } else {
            let a = time(&mut after);
            (time(&mut before), a)
        };
        tb.push(b);
        ta.push(a);
        ratios.push(b / a);
    }
    let median = |xs: &mut Vec<f64>| {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    };
    (median(&mut tb), median(&mut ta), median(&mut ratios))
}

/// A per-run temp path for an on-disk trace.
fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("lifepred-bench-{tag}-{}.lpt", std::process::id()))
}

/// Mapped decode without the bulk CRC pass — the repeated-decode cost
/// once a trace has been verified at ingest; the server section
/// records the one-time verify cost alongside.
fn file_mapped_events_unverified(path: &Path) -> u64 {
    let mapped = MappedTrace::open_unverified(path).expect("mapped open");
    let mut chunks = mapped.events();
    let mut chunk = EventChunk::with_capacity(POOLED_CHUNK_EVENTS);
    let mut n = 0u64;
    while chunks.next_chunk(&mut chunk).expect("chunk") {
        n += chunk.len() as u64;
    }
    std::hint::black_box(n)
}

/// Median seconds of `f` over `rounds` runs.
fn median_time(rounds: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..rounds)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

fn main() {
    let keepers = if smoke() { KEEPERS / 10 } else { KEEPERS };
    let churn = if smoke() { CHURN / 10 } else { CHURN };
    let host = lifepred_bench::BenchHost::probe();
    let cores = host.cores;

    // --- firstfit: linear scan vs the free-block tree -------------------
    let time_lattice = |holes: (u32, u32)| {
        let frag = frag_workload(keepers, churn, holes);
        // Equivalence before speed: both heaps must agree on every
        // observable, or the comparison is meaningless.
        assert_eq!(
            replay_linear(&frag),
            replay_indexed(&frag),
            "linear and indexed first-fit diverged on the bench workload"
        );
        let (t_linear, t_indexed, speedup) = paired_speedup(
            rounds(FF_ROUNDS),
            || {
                std::hint::black_box(replay_linear(&frag));
            },
            || {
                std::hint::black_box(replay_indexed(&frag));
            },
        );
        let events = frag.events().len();
        let (linear_rate, indexed_rate) = (events as f64 / t_linear, events as f64 / t_indexed);
        (events, linear_rate, indexed_rate, speedup)
    };
    // Both lattices have the same number of events.
    let (ff_events, linear_rate, indexed_rate, ff_speedup) = time_lattice(SMALL_HOLES);
    let (_, sc_linear_rate, sc_indexed_rate, sc_speedup) = time_lattice(SAME_CLASS_HOLES);

    // --- simulate: end-to-end pipeline scaling over --jobs --------------
    // Always the full-size trace and round count: a smoke-sized sweep
    // is 4 ms of work, and gating on it would measure thread start-up,
    // not scaling.
    let sim_trace = workload(PAIRS);
    let sim_events = sim_trace.events().len() as u64;
    let sim_file = temp_path("simulate");
    std::fs::write(
        &sim_file,
        TraceWriter::new(Vec::new())
            .write(&sim_trace)
            .expect("encode simulate trace"),
    )
    .expect("write simulate trace");
    let db = train(
        &Profile::build(&sim_trace, &SiteConfig::default(), DEFAULT_THRESHOLD),
        &TrainConfig::default(),
    );
    let sim_path = sim_file.to_str().expect("utf-8 temp path");
    let backend = SimBackend::Arena(&db);
    let simulate_once =
        || simulate_file(sim_path, &backend, ArenaConfig::default(), false).expect("simulate");
    simulate_once();
    let sweep = |jobs: usize| {
        let reports = lifepred_bench::run_jobs(vec![(); SIM_TRACES], jobs, |_, ()| simulate_once());
        assert_eq!(reports.len(), SIM_TRACES);
    };
    let (t_jobs1, t_jobs2, s2) = paired_speedup(SIM_ROUNDS, || sweep(1), || sweep(2));
    let t_jobs4 = median_time(SIM_ROUNDS, || sweep(4));
    let s4 = t_jobs1 / t_jobs4;
    std::fs::remove_file(&sim_file).ok();

    // --- server: a streamed 10⁷-event synthetic trace -------------------
    let scale_target = if smoke() {
        SCALE_EVENTS / 100
    } else {
        SCALE_EVENTS
    };
    let scale_config = SimConfig::for_events(scale_target, 0x1993);
    let scale_path = temp_path("scale");
    let gen_start = Instant::now();
    let sink = std::io::BufWriter::with_capacity(
        1 << 20,
        std::fs::File::create(&scale_path).expect("create scale trace"),
    );
    let (summary, sink) = generate_lpt(&scale_config, sink).expect("generate scale trace");
    sink.into_inner().expect("flush scale trace");
    let gen_secs = gen_start.elapsed().as_secs_f64();
    let scale_events = summary.events;
    let scale_file_bytes = std::fs::metadata(&scale_path)
        .expect("stat scale trace")
        .len();
    // Verify once, decode many: the bulk CRC is a property of the file,
    // paid at ingest and recorded below as its own cost. The decode
    // rounds then measure the repeated-pass price.
    let verify_start = Instant::now();
    drop(MappedTrace::open(&scale_path).expect("verify scale trace"));
    let verify_secs = verify_start.elapsed().as_secs_f64();
    let t_scale_mapped = median_time(rounds(SCALE_ROUNDS), || {
        assert_eq!(file_mapped_events_unverified(&scale_path), scale_events);
    });
    // End-to-end server row: first-fit replay straight off the mapping
    // (the file was verified once above, so the replay opens
    // unverified, same as the decode rounds).
    let server_meta = {
        let mapped = MappedTrace::open_unverified(&scale_path).expect("mapped open");
        ReplayMeta {
            program: mapped.name().to_owned(),
            function_calls: mapped.stats().function_calls,
        }
    };
    // The replay is ~30x slower than decode, so 3 rounds bound the run.
    let t_server = median_time(3, || {
        let mapped = MappedTrace::open_unverified(&scale_path).expect("mapped open");
        let report = replay(&server_meta, mapped.events(), &ReplayPlan::FirstFit, None)
            .expect("server replay");
        std::hint::black_box(report);
    });
    std::fs::remove_file(&scale_path).ok();

    let json = format!(
        "{{\n  \
           \"schema\": \"lifepred-bench-replay-v3\",\n  \
           \"smoke\": {smoke},\n  \
           {host_fields},\n  \
           \"firstfit\": {{\n    \
             \"events\": {ff_events},\n    \
             \"linear_events_per_sec\": {linear_rate:.0},\n    \
             \"indexed_events_per_sec\": {indexed_rate:.0},\n    \
             \"speedup\": {ff_speedup:.2},\n    \
             \"same_class_linear_events_per_sec\": {sc_linear_rate:.0},\n    \
             \"same_class_indexed_events_per_sec\": {sc_indexed_rate:.0},\n    \
             \"same_class_speedup\": {sc_speedup:.2}\n  \
           }},\n  \
           \"simulate\": {{\n    \
             \"traces\": {SIM_TRACES},\n    \
             \"events_per_trace\": {sim_events},\n    \
             \"jobs1_secs\": {t_jobs1:.4},\n    \
             \"jobs2_secs\": {t_jobs2:.4},\n    \
             \"jobs4_secs\": {t_jobs4:.4},\n    \
             \"speedup_jobs2\": {s2:.2},\n    \
             \"speedup_jobs4\": {s4:.2}\n  \
           }},\n  \
           \"server\": {{\n    \
             \"events\": {scale_events},\n    \
             \"file_bytes\": {scale_file_bytes},\n    \
             \"gen_events_per_sec\": {gen_rate:.0},\n    \
             \"verify_once_secs\": {verify_secs:.4},\n    \
             \"mapped_events_per_sec\": {scale_mapped_rate:.0},\n    \
             \"replay_events_per_sec\": {server_rate:.0}\n  \
           }}\n}}\n",
        smoke = smoke(),
        host_fields = host.json_fields(),
        gen_rate = scale_events as f64 / gen_secs,
        scale_mapped_rate = scale_events as f64 / t_scale_mapped,
        server_rate = scale_events as f64 / t_server,
    );
    println!(
        "firstfit: {linear_rate:.0} events/s linear, {indexed_rate:.0} events/s indexed \
         ({ff_speedup:.2}x); same-class holes {sc_linear_rate:.0} vs {sc_indexed_rate:.0} \
         ({sc_speedup:.2}x)",
    );
    println!(
        "simulate: {SIM_TRACES} traces in {t_jobs1:.3}s @ jobs=1, {t_jobs2:.3}s @ jobs=2 \
         ({s2:.2}x), {t_jobs4:.3}s @ jobs=4 ({s4:.2}x) on {cores} core(s)",
    );
    println!(
        "server:   {scale_events} events generated at {:.1}M events/s ({scale_file_bytes} file \
         bytes); verified once in {verify_secs:.3}s; decode {:.1}M events/s mapped; first-fit \
         replay {:.1}M events/s",
        scale_events as f64 / gen_secs / 1e6,
        scale_events as f64 / t_scale_mapped / 1e6,
        scale_events as f64 / t_server / 1e6,
    );
    // Scaling floor: on a machine with a second core, `--jobs 2` must
    // be at least 1.5x faster than sequential (BENCH_replay.json
    // records 2.15x on 2 cores). The CI `test` job exports
    // LIFEPRED_BENCH_REQUIRE_SCALING to turn a miss into a failure.
    const SCALING_FLOOR: f64 = 1.5;
    if cores >= 2 {
        if s2 < SCALING_FLOOR {
            println!(
                "warning: --jobs 2 speedup {s2:.2}x is below the {SCALING_FLOOR}x floor \
                 on {cores} cores"
            );
            if std::env::var_os("LIFEPRED_BENCH_REQUIRE_SCALING").is_some() {
                std::process::exit(1);
            }
        } else {
            println!("scaling check: --jobs 2 speedup {s2:.2}x meets the {SCALING_FLOOR}x floor");
        }
    } else {
        println!("scaling check skipped: {cores} core, parallel speedup is not assessable");
    }
    // A smoke run exercises the harness but is far too short to
    // measure anything; only full runs update the recorded trajectory.
    if smoke() {
        println!("smoke mode: results/BENCH_replay.json left untouched");
    } else {
        let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/BENCH_replay.json");
        std::fs::write(&out, &json).expect("write results/BENCH_replay.json");
        println!("wrote {}", out.display());
    }
}
