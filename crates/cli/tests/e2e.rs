//! End-to-end tests for the `lifepred` CLI: the record → train →
//! simulate pipeline, cross-checks between the streaming and in-memory
//! replay paths, and error handling on damaged inputs.

#[path = "../../adaptive/tests/support/scan_all.rs"]
mod scan_all;

use lifepred_core::{ShortLivedSet, SiteConfig, SiteExtractor};
use lifepred_heap::{replay, ArenaConfig, ReplayPlan, ReplayReport, ReplayStreamError};
use lifepred_trace::{shared_registry, ChunkEvent, Trace, POOLED_CHUNK_EVENTS};
use lifepred_tracefile::{load_trace, MappedTrace};
use lifepred_workloads::{by_name, record};
use std::path::PathBuf;

/// A fresh scratch directory per test, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("lifepred-cli-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tempdir");
        Scratch(dir)
    }

    fn path(&self, file: &str) -> String {
        self.0.join(file).to_string_lossy().into_owned()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn replayed(trace: &Trace, plan: ReplayPlan<'_>) -> ReplayReport {
    replay(trace, &plan, None).expect("valid trace").0
}

fn run(args: &[&str]) -> Result<String, String> {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut out = Vec::new();
    lifepred_cli::run(&args, &mut out).map(|()| String::from_utf8(out).expect("utf8 output"))
}

#[test]
fn record_train_simulate_pipeline() {
    let dir = Scratch::new("pipeline");
    let trace = dir.path("cfrac.lpt");
    let pred = dir.path("pred.json");

    let out = run(&[
        "record",
        "--workload",
        "cfrac",
        "--input",
        "0",
        "-o",
        &trace,
    ])
    .expect("record succeeds");
    assert!(out.contains("cfrac"), "record output: {out}");

    let out = run(&["train", &trace, "-o", &pred]).expect("train succeeds");
    assert!(out.contains("short-lived sites"), "train output: {out}");
    assert!(std::fs::read_to_string(&pred)
        .expect("predictor written")
        .contains("lifepred-predictor"));

    let out = run(&["simulate", &trace, "--predictor", &pred]).expect("simulate succeeds");
    assert!(
        out.contains("allocator:      arena"),
        "simulate output: {out}"
    );
    assert!(out.contains("arena allocs"), "simulate output: {out}");

    let out = run(&["inspect", &trace, "--verify"]).expect("inspect succeeds");
    assert!(
        out.contains("program:         cfrac:"),
        "inspect output: {out}"
    );
    assert!(out.contains("all checksums good"), "inspect output: {out}");
}

#[test]
fn streamed_simulation_matches_in_memory_replay() {
    let dir = Scratch::new("stream-vs-memory");
    let trace_path = dir.path("espresso.lpt");

    run(&["record", "--workload", "espresso", "-o", &trace_path]).expect("record");

    // The reloaded trace must replay to byte-identical reports.
    let w = by_name("espresso").expect("workload");
    let in_memory = record(w.as_ref(), 0, shared_registry());
    let reloaded = load_trace(&trace_path).expect("reload");
    for plan in [ReplayPlan::FirstFit, ReplayPlan::Bsd] {
        assert_eq!(replayed(&in_memory, plan), replayed(&reloaded, plan));
    }

    // And the streaming simulate path must agree with both: simulate
    // under an empty-equivalent and a real predictor.
    let pred = dir.path("pred.json");
    run(&["train", &trace_path, "-o", &pred]).expect("train");
    let json = std::fs::read_to_string(&pred).expect("read predictor");
    let db = ShortLivedSet::from_json(&json).expect("parse predictor");
    let arena = ArenaConfig::default();
    let expected = replayed(&in_memory, ReplayPlan::Arena { db: &db, arena });
    let out = run(&["simulate", &trace_path, "--predictor", &pred]).expect("simulate");
    assert!(
        out.contains(&format!("max heap bytes: {}", expected.max_heap_bytes)),
        "streamed vs in-memory divergence:\n{out}\nexpected {expected:?}"
    );
    assert!(out.contains(&format!(
        "arena allocs:   {} ({:.1}%)",
        expected.arena_allocs,
        expected.arena_alloc_pct()
    )));

    // The non-predicting allocators are streamable too.
    let out = run(&["simulate", &trace_path, "--allocator", "first-fit"]).expect("first-fit");
    let expected = replayed(&in_memory, ReplayPlan::FirstFit);
    assert!(out.contains(&format!("max heap bytes: {}", expected.max_heap_bytes)));
    let out = run(&["simulate", &trace_path, "--allocator", "bsd"]).expect("bsd");
    let expected = replayed(&in_memory, ReplayPlan::Bsd);
    assert!(out.contains(&format!("max heap bytes: {}", expected.max_heap_bytes)));
}

#[test]
fn parallel_simulate_matches_sequential_and_merges_metrics() {
    let dir = Scratch::new("parallel");
    let t0 = dir.path("espresso0.lpt");
    let t1 = dir.path("espresso1.lpt");
    run(&[
        "record",
        "--workload",
        "espresso",
        "--input",
        "0",
        "--input",
        "1",
        "-o",
        &dir.path("espresso{}.lpt"),
    ])
    .expect("record both inputs");

    // Two traces through the first-fit model, sequentially and with a
    // worker pool: the printed reports must be byte-identical, in input
    // order either way.
    let seq = run(&["simulate", &t0, &t1, "--allocator", "first-fit"]).expect("sequential");
    let par = run(&[
        "simulate",
        &t0,
        &t1,
        "--allocator",
        "first-fit",
        "--jobs",
        "4",
    ])
    .expect("parallel");
    assert_eq!(seq, par, "job count must not change the output");
    assert_eq!(
        seq.matches("allocator:      first-fit").count(),
        2,
        "one report per trace: {seq}"
    );

    // Metrics from parallel jobs are merged into one dump whose totals
    // cover both traces.
    let metrics = dir.path("m.json");
    run(&[
        "simulate",
        &t0,
        &t1,
        "--allocator",
        "first-fit",
        "--jobs",
        "2",
        "--metrics-out",
        &metrics,
    ])
    .expect("parallel with metrics");
    let snap = lifepred_obs::Snapshot::from_json(
        &std::fs::read_to_string(&metrics).expect("metrics written"),
    )
    .expect("metrics parse");
    let a = load_trace(&t0).expect("t0").stats().total_objects;
    let b = load_trace(&t1).expect("t1").stats().total_objects;
    assert_eq!(
        snap.counter("lifepred_sim_allocs_total"),
        Some(a + b),
        "merged dump covers both traces"
    );
    assert!(
        snap.counter("lifepred_sim_batch_refills_total")
            .unwrap_or(0)
            >= 2,
        "each trace consumed at least one event batch"
    );
}

#[test]
fn online_simulation_needs_no_predictor_file() {
    let dir = Scratch::new("online");
    let trace = dir.path("cfrac.lpt");
    run(&["record", "--workload", "cfrac", "-o", &trace]).expect("record");

    // The literal predictor `online` trains in-place: no JSON database
    // exists anywhere, yet the arena still admits objects.
    let out = run(&["simulate", &trace, "--predictor", "online"]).expect("online simulate");
    assert!(
        out.contains("allocator:      arena-online"),
        "online simulate output: {out}"
    );
    assert!(out.contains("online learner:"), "output: {out}");
    assert!(out.contains("epochs:"), "output: {out}");
    assert!(out.contains("coverage:"), "output: {out}");

    // Epoch geometry is tunable; the tuned run still reports learner
    // stats, and malformed geometry errors instead of panicking.
    let out = run(&[
        "simulate",
        &trace,
        "--predictor",
        "online",
        "--threshold",
        "4096",
        "--epoch",
        "8192",
        "--requalify",
        "2",
    ])
    .expect("tuned online simulate");
    assert!(out.contains("online learner:"), "output: {out}");
    assert!(run(&["simulate", &trace, "--predictor", "online", "--epoch", "0"]).is_err());
    assert!(run(&[
        "simulate",
        &trace,
        "--predictor",
        "online",
        "--requalify",
        "0"
    ])
    .is_err());
    assert!(run(&[
        "simulate",
        &trace,
        "--predictor",
        "online",
        "--allocator",
        "bsd"
    ])
    .is_err());
    // Nor does a non-predicting allocator take a database: the flag
    // would be silently ignored, so it is refused.
    for allocator in ["bsd", "first-fit"] {
        let err = run(&[
            "simulate",
            &trace,
            "--allocator",
            allocator,
            "--predictor",
            "pred.json",
        ])
        .expect_err("contradictory flags");
        assert!(
            err.contains("--predictor is only used by the arena allocator"),
            "{err}"
        );
    }
}

#[test]
fn simulate_metrics_out_dumps_the_registry() {
    let dir = Scratch::new("metrics");
    let trace = dir.path("cfrac.lpt");
    let metrics = dir.path("metrics.json");
    run(&["record", "--workload", "cfrac", "-o", &trace]).expect("record");

    // Online simulate fills the epoch timeline alongside the counters
    // and histograms.
    let out = run(&[
        "simulate",
        &trace,
        "--predictor",
        "online",
        "--metrics-out",
        &metrics,
    ])
    .expect("observed simulate");
    assert!(out.contains("metrics:"), "output: {out}");

    let json = std::fs::read_to_string(&metrics).expect("metrics written");
    let snap = lifepred_obs::Snapshot::from_json(&json).expect("valid metrics JSON");
    assert!(json.contains("lifepred-metrics-v1"), "schema tag missing");
    let allocs = snap
        .counter("lifepred_sim_allocs_total")
        .expect("alloc counter");
    assert!(allocs > 0, "no allocations recorded");
    // The three required histogram families: size, lifetime, latency.
    for hist in [
        "lifepred_sim_size_bytes",
        "lifepred_sim_lifetime_bytes",
        "lifepred_sim_event_ns",
    ] {
        assert!(snap.histogram(hist).is_some(), "missing histogram {hist}");
    }
    assert_eq!(
        snap.histogram("lifepred_sim_size_bytes").map(|h| h.count),
        Some(allocs)
    );
    // An observed replay times every event.
    let loaded = load_trace(&trace).expect("load trace");
    let events = loaded.end_seq();
    assert_eq!(
        snap.histogram("lifepred_sim_event_ns").map(|h| h.count),
        Some(events),
        "one latency observation per event"
    );
    // The mapped replay refills one chunk of up to POOLED_CHUNK_EVENTS
    // per batch.
    assert!(
        events > POOLED_CHUNK_EVENTS as u64,
        "{events} events fit one chunk"
    );
    assert_eq!(
        snap.counter("lifepred_sim_batch_refills_total"),
        Some(events.div_ceil(POOLED_CHUNK_EVENTS as u64))
    );
    let timeline = snap.timeline("lifepred_sim_epochs").expect("timeline");
    assert!(!timeline.is_empty(), "online run must sample epochs");
    // Learner gauges ride along in the same dump.
    assert!(snap.gauge("lifepred_learner_epochs").is_some());

    // Offline simulate dumps metrics too (empty timeline: no epochs).
    let pred = dir.path("pred.json");
    run(&["train", &trace, "-o", &pred]).expect("train");
    let metrics2 = dir.path("metrics-offline.json");
    run(&[
        "simulate",
        &trace,
        "--predictor",
        &pred,
        "--metrics-out",
        &metrics2,
    ])
    .expect("observed offline simulate");
    let snap2 = lifepred_obs::Snapshot::from_json(
        &std::fs::read_to_string(&metrics2).expect("metrics written"),
    )
    .expect("valid metrics JSON");
    assert_eq!(snap2.counter("lifepred_sim_allocs_total"), Some(allocs));
    assert_eq!(snap2.timeline("lifepred_sim_epochs"), Some(&[][..]));

    // The JSON dump is the one metrics artifact: no command renders it.
    let err = run(&["stats", &metrics]).unwrap_err();
    assert!(err.contains("unknown command \"stats\""), "{err}");
}

/// The observed replay samples `stats()` at every epoch tick, so its
/// timeline is where a maintained `short_sites` counter drifting from a
/// recount would show: it must be the oracle learner's series.
#[test]
fn observed_online_timeline_is_the_scan_all_oracles() {
    let dir = Scratch::new("timeline");
    let trace = dir.path("gen.lpt");
    let metrics = dir.path("metrics.json");
    run(&["gen", "--events", "100k", "--seed", "1", "-o", &trace]).expect("gen");
    run(&[
        "simulate",
        &trace,
        "--predictor",
        "online",
        "--metrics-out",
        &metrics,
    ])
    .expect("observed simulate");
    let snap = lifepred_obs::Snapshot::from_json(
        &std::fs::read_to_string(&metrics).expect("metrics written"),
    )
    .expect("valid metrics JSON");
    let timeline = snap.timeline("lifepred_sim_epochs").expect("timeline");

    let loaded = load_trace(&trace).expect("load");
    let mut sites = SiteExtractor::from_chains(loaded.chains(), SiteConfig::default());
    let mut oracle = scan_all::ScanAllReplay::new(lifepred_adaptive::EpochConfig::default());
    for event in loaded.events() {
        match event {
            ChunkEvent::Alloc { record, size } => {
                let site = sites.site_of(&loaded.records()[record]);
                oracle.alloc(record, site.fingerprint(), size);
            }
            ChunkEvent::Free { record } => oracle.free(record),
        }
    }
    // The timeline is a ring: it holds the newest samples.
    let kept = oracle
        .samples
        .len()
        .min(lifepred_obs::DEFAULT_TIMELINE_CAPACITY);
    assert!(kept > 100, "only {kept} epoch ticks: not much of a series");
    assert_eq!(timeline.len(), kept);
    let expected: Vec<_> = oracle.samples[oracle.samples.len() - kept..]
        .iter()
        .map(|s| {
            (
                s.epochs,
                s.sites,
                s.short_sites,
                s.demotions,
                s.mispredictions,
            )
        })
        .collect();
    let got: Vec<_> = timeline
        .iter()
        .map(|s| {
            (
                s.epoch,
                s.sites,
                s.short_sites,
                s.demotions,
                s.mispredictions,
            )
        })
        .collect();
    assert_eq!(got, expected);
    assert_eq!(
        snap.gauge("lifepred_learner_short_sites"),
        Some(oracle.learner.stats().short_sites)
    );
}

#[test]
fn multi_input_record_trains_across_traces() {
    let dir = Scratch::new("multi-input");
    let pattern = dir.path("espresso-{}.lpt");
    run(&[
        "record",
        "--workload",
        "espresso",
        "--input",
        "0",
        "--input",
        "1",
        "-o",
        &pattern,
    ])
    .expect("record two inputs");
    let t0 = dir.path("espresso-0.lpt");
    let t1 = dir.path("espresso-1.lpt");
    let pred = dir.path("pred.json");
    let out = run(&["train", &t0, &t1, "-o", &pred]).expect("train on both");
    assert!(out.contains("short-lived sites"));
    // The cross-trace predictor drives a simulation of the test input.
    run(&["simulate", &t1, "--predictor", &pred]).expect("simulate test input");
}

#[test]
fn report_compares_offline_and_online_predictors() {
    let out = run(&["report", "--workload", "espresso"]).expect("report");
    assert!(out.contains("offline vs online"), "report output: {out}");
    for col in ["true%", "trueerr%", "online%", "onerr%", "epochs"] {
        assert!(out.contains(col), "missing column {col}: {out}");
    }
    assert!(out.contains("espresso"), "report output: {out}");
}

/// `report --drag` is a pure function of the workload: pin its whole
/// text, at one worker and at two.
#[test]
fn report_drag_text_is_pinned() {
    let expected = "\
liveness timelines (oracle arenas at threshold 32768 bytes; clocks in allocated bytes)

cfrac: 20836 objects, end clock 150908 bytes
    t%   short.alloc    short.live     short.ref    long.alloc     long.live      long.ref
    10         12128          5988          2932          2964          2964          1704
    20         27356         13960         10736          2964          2964          1704
    30         38104           288           252          7172          4208          3412
    40         53320          8500          6344          7172          4208          3412
    50         68284         12928          3176          7172          4208          1708
    60         81500          6024          4392          9144          1972          1704
    70         96492         15160          9764          9144          1972          1220
    80        109116          1292           736         11612          2468          1704
    90        124216         10488          7564         11612          2468          1704
   100        139296             0             0         11612             0             0

== object drag (byte clock held past the last touch) ==
program  arena  objects   bytes  untouched%  mean drag  drag%
-------------------------------------------------------------
  cfrac  short    20749  139296         0.3        419   75.3
  cfrac   long       87   11612        13.8      22815   64.6
";
    for jobs in ["1", "2"] {
        let out = run(&["report", "--drag", "--workload", "cfrac", "--jobs", jobs]);
        assert_eq!(out.expect("report --drag"), expected, "--jobs {jobs}");
    }
}

/// `native cfrac` run by the binary, whose global allocator is
/// `LifepredGlobal`: the counts vary from run to run, the labels do
/// not. Every number becomes `#`, and a run of spaces or dashes (whose
/// lengths follow the numbers' widths) becomes one.
#[test]
fn native_text_labels_are_pinned() {
    fn labels(text: &str) -> String {
        let mut out = String::new();
        for line in text.lines() {
            let mut prev = None;
            for c in line.trim().chars() {
                let c = if c.is_ascii_digit() || (c == '.' && prev == Some('#')) {
                    '#'
                } else {
                    c
                };
                if matches!(c, '#' | ' ' | '-') && prev == Some(c) {
                    continue;
                }
                out.push(c);
                prev = Some(c);
            }
            out.push('\n');
        }
        out
    }
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_lifepred"))
        .args(["native", "cfrac"])
        .output()
        .expect("spawn lifepred");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).expect("utf8 output");
    assert_eq!(
        labels(&text),
        "\
== native runs (allocations served by LifepredGlobal) ==
workload traced small allocs fallbacks
-
cfrac # # #

allocator totals:
small allocs: # (# bytes)
magazine hit rate: #%
remote frees: #
system fallbacks: # large, # align, # exhausted
",
        "{text}"
    );
}

/// Every command that takes workload names checks them all before it
/// runs any, and names the known workloads when one is wrong.
#[test]
fn unknown_workloads_are_refused_up_front_with_the_known_list() {
    let want = "unknown workload \"nosuch\" (known: cfrac, espresso, gawk, ghost, perl, server)";
    let names = ["--workload", "cfrac", "--workload", "nosuch"];
    for args in [
        [&["report"][..], &names].concat(),
        [&["report", "--drag"][..], &names].concat(),
        vec!["record", "--workload", "nosuch", "-o", "x.lpt"],
    ] {
        assert_eq!(run(&args).expect_err("unknown workload"), want, "{args:?}");
    }
}

/// A workload named twice is refused before any runs, instead of
/// running twice and printing two identical rows.
#[test]
fn repeated_workloads_are_refused_up_front() {
    let names = ["--workload", "cfrac", "--workload", "cfrac"];
    for (args, want) in [
        (
            [&["report"][..], &names].concat(),
            "report: --workload cfrac is repeated",
        ),
        (
            [&["report", "--drag"][..], &names].concat(),
            "report: --workload cfrac is repeated",
        ),
        (
            vec!["native", "cfrac", "gawk", "cfrac"],
            "workload \"cfrac\" is repeated",
        ),
    ] {
        assert_eq!(run(&args).expect_err("repeated workload"), want, "{args:?}");
    }
}

#[test]
fn corrupted_and_missing_files_error_cleanly() {
    let dir = Scratch::new("corrupt");
    let trace = dir.path("t.lpt");
    run(&["record", "--workload", "espresso", "-o", &trace]).expect("record");

    // Flip one payload byte: every subcommand must report an error.
    let mut bytes = std::fs::read(&trace).expect("read");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    let bad = dir.path("bad.lpt");
    std::fs::write(&bad, &bytes).expect("write");
    assert!(run(&["inspect", &bad, "--verify"]).is_err());
    assert!(run(&["train", &bad, "-o", &dir.path("p.json")]).is_err());
    assert!(run(&["simulate", &bad, "--allocator", "first-fit"]).is_err());

    // Missing files and malformed predictors error, never panic.
    assert!(run(&["inspect", &dir.path("nope.lpt")]).is_err());
    let junk = dir.path("junk.json");
    std::fs::write(&junk, "{not json").expect("write");
    assert!(run(&["simulate", &trace, "--predictor", &junk]).is_err());
}

/// `inspect`'s text is a header block plus one block per flag, in a
/// fixed order: pin each block, then every one of the 32 flag
/// combinations must print exactly the blocks it selects.
#[test]
fn inspect_text_is_pinned_for_every_flag_combination() {
    let dir = Scratch::new("inspect-pin");
    let path = dir.path("pinned.lpt");
    let s = lifepred_trace::TraceSession::new("pinned");
    {
        let _main = s.enter("main");
        let a = {
            let _make = s.enter("make");
            s.alloc(24)
        };
        s.touch(a, 3);
        s.alloc(100);
        s.free(a);
        s.work(50);
    }
    s.alloc(7);
    lifepred_tracefile::save_trace(&path, &s.finish()).expect("save");

    let header = "\
program:         pinned
objects:         3
bytes allocated: 131
max live:        124 bytes / 2 objects
instructions:    59
function calls:  2
heap refs:       3 (20.0% of all refs)
functions:       2
call chains:     3
end clock/seq:   131 / 4
";
    let backing = if MappedTrace::open(&path).expect("open").is_mapped() {
        "mmap"
    } else {
        "heap"
    };
    // 103 file bytes: the records and events lengths are the writer's
    // five-byte padded varints (17 and 6 would fit one byte each).
    let sections = format!(
        "
sections ({backing}, 103 file bytes):
  meta                 16 bytes
  functions            11 bytes             2 entries
  chains                7 bytes             3 entries
  records              17 bytes             3 entries
  events                6 bytes             4 entries
"
    );
    let blocks = [
        ("--functions", "\nfunctions:\n  main\n  make\n"),
        (
            "--chains",
            "\ncall chains:\n  main>make\n  main\n  (empty)\n",
        ),
        ("--sections", sections.as_str()),
        (
            "--head=3",
            "
events (first 3 of 4):
  seq 0          alloc record 0            size 24
  seq 1          alloc record 1            size 100
  seq 2          free  record 0
",
        ),
        (
            "--verify",
            "\nverified: 3 records, 4 events, all checksums good, \
             events agree with records and header\n",
        ),
    ];
    for mask in 0..1u32 << blocks.len() {
        let mut args = vec!["inspect", path.as_str()];
        let mut expected = header.to_owned();
        // Flags are given last-first: the block order is the
        // program's, not the command line's.
        for (i, (flag, text)) in blocks.iter().enumerate() {
            if mask & (1 << i) != 0 {
                args.insert(2, flag);
                expected.push_str(text);
            }
        }
        assert_eq!(run(&args).expect("inspect"), expected, "{args:?}");
    }
}

/// A truncated file is refused by every `inspect` view (nothing else
/// could read it either); a flipped payload byte leaves the framing
/// intact, so only `--verify` pays for the CRC pass that finds it.
#[test]
fn inspect_reports_truncation_and_verifies_on_request() {
    let dir = Scratch::new("inspect-hostile");
    let good = dir.path("good.lpt");
    run(&["record", "--workload", "cfrac", "-o", &good]).expect("record");
    let bytes = std::fs::read(&good).expect("read");
    let records = records_payload(&bytes);

    let truncated = dir.path("truncated.lpt");
    for cut in [3, 7, records.start - 1, records.start + 5, bytes.len() - 1] {
        std::fs::write(&truncated, &bytes[..cut]).expect("write");
        for flags in [&[][..], &["--sections"], &["--head", "2"], &["--verify"]] {
            let args = [&["inspect", truncated.as_str()], flags].concat();
            let err = run(&args).expect_err("a truncated file is refused");
            assert!(
                err.contains("truncated.lpt: truncated trace file while reading"),
                "cut at {cut}, {flags:?}: {err}"
            );
        }
    }

    let flipped = dir.path("flipped.lpt");
    let mut damaged = bytes.clone();
    damaged[records.start + records.len() / 2] ^= 0x04;
    std::fs::write(&flipped, &damaged).expect("write");
    assert_eq!(
        run(&["inspect", &flipped, "--sections"]).expect("framing is intact"),
        run(&["inspect", &good, "--sections"]).expect("inspect")
    );
    let err = run(&["inspect", &flipped, "--verify"]).expect_err("--verify pays for the CRCs");
    assert!(
        err.contains("flipped.lpt: checksum mismatch in records section"),
        "{err}"
    );
}

/// Byte range of the records section's payload in an `.lpt` image
/// (its CRC is the four bytes after): 8 header bytes, then per section
/// an id byte, a LEB128 payload length, the payload and a CRC.
fn records_payload(bytes: &[u8]) -> std::ops::Range<usize> {
    let mut pos = 8;
    for id in 1..=4 {
        assert_eq!(bytes[pos], id);
        pos += 1;
        let (mut len, mut shift) = (0usize, 0);
        loop {
            let b = bytes[pos];
            pos += 1;
            len |= usize::from(b & 0x7f) << shift;
            shift += 7;
            if b & 0x80 == 0 {
                break;
            }
        }
        if id == 4 {
            return pos..pos + len;
        }
        pos += len + 4;
    }
    unreachable!()
}

/// `train` profiles each file straight off its mapping, so a damaged
/// records section is found by `MappedTrace::open` or, where the CRC
/// still matches, by the records stream itself — not by `load_trace`.
/// Either way it must be reported as `path: reason` with exit code 1,
/// for the second file of `train a.lpt b.lpt` too, and `-o` must not
/// appear, not even partially.
#[test]
fn train_on_a_damaged_records_section_names_the_file_and_writes_nothing() {
    use std::process::Command;
    let dir = Scratch::new("train-hostile");
    let good = dir.path("good.lpt");
    run(&["record", "--workload", "cfrac", "-o", &good]).expect("record");
    let bytes = std::fs::read(&good).expect("read");
    let records = records_payload(&bytes);
    let mid = records.start + records.len() / 2;

    let flipped = dir.path("flipped.lpt");
    let mut damaged = bytes.clone();
    damaged[mid] ^= 0x04;
    std::fs::write(&flipped, &damaged).expect("write");

    let truncated = dir.path("truncated.lpt");
    std::fs::write(&truncated, &bytes[..mid]).expect("write");

    // One record more promised than present, under a matching CRC:
    // the file opens, and the stream fails after the last real record.
    let recounted = dir.path("recounted.lpt");
    let mut damaged = bytes.clone();
    assert_ne!(damaged[records.start] & 0x7f, 0x7f, "count + 1 carries");
    damaged[records.start] += 1;
    let mut crc = lifepred_tracefile::Crc32::new();
    crc.update(&damaged[records.clone()]);
    damaged[records.end..records.end + 4].copy_from_slice(&crc.finish().to_le_bytes());
    std::fs::write(&recounted, &damaged).expect("write");
    MappedTrace::open(&recounted).expect("the recounted file passes its checksums");

    let pred = dir.path("pred.json");
    for bad in [&flipped, &truncated, &recounted] {
        for files in [vec![bad], vec![&good, bad]] {
            let out = Command::new(env!("CARGO_BIN_EXE_lifepred"))
                .arg("train")
                .args(&files)
                .args(["-o", &pred])
                .output()
                .expect("spawn lifepred");
            assert_eq!(out.status.code(), Some(1), "{files:?}: {out:?}");
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(err.starts_with(&format!("lifepred: {bad}: ")), "{err}");
            assert!(!err.contains("panicked"), "{err}");
            assert!(
                !std::path::Path::new(&pred).exists(),
                "{files:?}: a failed train left {pred} behind"
            );
        }
    }
    // The same command over undamaged files does write it.
    run(&["train", &good, &good, "-o", &pred]).expect("train");
    assert!(std::path::Path::new(&pred).exists());
}

/// Writes a CRC-valid trace of `records` 8-byte records (record `i`
/// born at clock `8 i`, dead 8 bytes later) whose events allocate and
/// free two objects: alloc, free 0, alloc, free 1.
fn write_two_allocation_trace(path: &str, records: u64) {
    use lifepred_tracefile::{StreamMeta, StreamTraceWriter};
    let mut registry = lifepred_trace::FunctionRegistry::new();
    let main = registry.intern("main");
    let mut chains = lifepred_trace::ChainTable::new();
    let chain = chains.intern(&[main]);
    let meta = StreamMeta {
        name: "short",
        stats: lifepred_trace::TraceStats {
            total_bytes: 16,
            total_objects: records,
            max_live_bytes: 8,
            max_live_objects: 1,
            ..Default::default()
        },
    };
    let file = std::fs::File::create(path).expect("create");
    let mut w = StreamTraceWriter::new(file, &meta, &registry, &chains).expect("writer");
    w.begin_records(records).expect("records");
    for i in 0..records {
        w.write_record(&lifepred_trace::AllocationRecord {
            size: 8,
            chain,
            birth_clock: 8 * i,
            death_clock: Some(8 * i + 8),
            refs: 0,
            first_ref_clock: None,
            last_ref_clock: None,
        })
        .expect("record");
    }
    w.end_records().expect("records end");
    w.begin_events(4).expect("events");
    for (i, event) in [Some(8), None, Some(8), None].into_iter().enumerate() {
        match event {
            Some(size) => w.write_alloc(size),
            None => w.write_free(i as u64 / 2),
        }
        .expect("event");
    }
    w.end_events().expect("events end");
    w.finish().expect("finish");
}

/// A CRC-valid trace whose events allocate one object more than its
/// records section holds: the predicting replays find the allocation
/// with no record behind it and refuse the file; `simulate` names it
/// and exits 1.
#[test]
fn an_allocation_past_the_last_record_is_corrupt_not_a_panic() {
    use std::process::Command;
    let dir = Scratch::new("past-records");
    let short = dir.path("short.lpt");
    write_two_allocation_trace(&short, 1);

    let mapped = MappedTrace::open(&short).expect("the file passes its checksums");
    let db = ShortLivedSet::empty(SiteConfig::default(), 32 * 1024);
    let arena = ArenaConfig::default();
    let online = ReplayPlan::ArenaOnline {
        sites: SiteConfig::default(),
        epoch: lifepred_adaptive::EpochConfig::default(),
        arena,
    };
    for plan in [ReplayPlan::Arena { db: &db, arena }, online] {
        let result = replay(&mapped, &plan, None);
        assert!(
            matches!(result, Err(ReplayStreamError::Corrupt(_))),
            "{plan:?}: {result:?}"
        );
    }

    let pred = dir.path("pred.json");
    std::fs::write(&pred, db.to_json()).expect("write predictor");
    for predictor in [pred.as_str(), "online"] {
        let out = Command::new(env!("CARGO_BIN_EXE_lifepred"))
            .args(["simulate", &short, "--predictor", predictor])
            .output()
            .expect("spawn lifepred");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{predictor}: {err}");
        assert!(err.starts_with(&format!("lifepred: {short}: ")), "{err}");
        assert!(err.contains("invalid event stream"), "{err}");
        assert!(!err.contains("panicked"), "{err}");
    }
}

/// Writes `trace` through `StreamTraceWriter`, so every checksum is
/// valid, with the size of its `n`th allocation event (record size
/// `size`) replaced by `resize(n, size)`.
fn write_resized(path: &str, trace: &Trace, resize: impl Fn(usize, u32) -> u32) {
    use lifepred_tracefile::{StreamMeta, StreamTraceWriter};
    let meta = StreamMeta {
        name: trace.name(),
        stats: *trace.stats(),
    };
    let file = std::fs::File::create(path).expect("create");
    let mut w =
        StreamTraceWriter::new(file, &meta, trace.registry(), trace.chains()).expect("writer");
    w.begin_records(trace.records().len() as u64)
        .expect("records");
    for r in trace.records() {
        w.write_record(r).expect("record");
    }
    w.end_records().expect("records end");
    w.begin_events(trace.end_seq()).expect("events");
    let mut allocs = 0;
    for e in trace.events() {
        match e {
            ChunkEvent::Alloc { size, .. } => {
                allocs += 1;
                w.write_alloc(resize(allocs - 1, size))
            }
            ChunkEvent::Free { record } => w.write_free(record as u64),
        }
        .expect("event");
    }
    w.end_events().expect("events end");
    w.finish().expect("finish");
}

/// Checks that `inspect <path> --verify` exits 1 and that `load_trace`
/// returns a typed error, both with the lockstep walk's message, which
/// must start with `want`.
fn refused_by_the_walk(path: &str, want: &str) {
    use lifepred_tracefile::TraceFileError;
    let err = load_trace(path).expect_err("a trace whose sections disagree");
    assert!(
        matches!(err, TraceFileError::Malformed { .. }),
        "{path}: {err}"
    );
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_lifepred"))
        .args(["inspect", path, "--verify"])
        .output()
        .expect("spawn lifepred");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{path}: {stderr}");
    assert_eq!(stderr, format!("lifepred: {path}: {err}\n"));
    assert!(err.to_string().starts_with(want), "{path}: {err}");
}

/// CRC-valid traces whose allocation events disagree with their records
/// in size: every second one says 50x its record's size, or one says
/// `u32::MAX` bytes. No checksum sees it, but then the events allocate
/// more bytes than the header's total, so every replay refuses the file
/// at end of stream and `simulate` exits 1 instead of printing wrong
/// `bytes:` lines. `inspect --verify` and `load_trace` refuse it at the
/// first allocation that disagrees with its record.
#[test]
fn events_that_disagree_with_the_header_totals_are_corrupt() {
    use std::process::Command;
    let dir = Scratch::new("meta-totals");
    let cfrac = by_name("cfrac").expect("workload");
    let trace = record(cfrac.as_ref(), 0, shared_registry());
    let inflated = dir.path("inflated.lpt");
    write_resized(&inflated, &trace, |n, size| match n % 2 {
        1 => 50 * size,
        _ => size,
    });
    let huge = dir.path("huge.lpt");
    write_resized(
        &huge,
        &trace,
        |n, size| if n == 7 { u32::MAX } else { size },
    );

    let db = ShortLivedSet::empty(SiteConfig::default(), 32 * 1024);
    let arena = ArenaConfig::default();
    let online = ReplayPlan::ArenaOnline {
        sites: SiteConfig::default(),
        epoch: lifepred_adaptive::EpochConfig::default(),
        arena,
    };
    let plans = [
        ReplayPlan::FirstFit,
        ReplayPlan::Bsd,
        ReplayPlan::Arena { db: &db, arena },
        online,
    ];
    let size_of = |object: usize| trace.records()[object].size;
    for (path, object, said) in [(&inflated, 1, 50 * size_of(1)), (&huge, 7, u32::MAX)] {
        let event = (trace.events().into_iter())
            .position(|e| matches!(e, ChunkEvent::Alloc { record, .. } if record == object))
            .expect("the object is allocated");
        let want = format!(
            "malformed events section: event {event} allocates object {object}: {said} bytes"
        );
        refused_by_the_walk(path, &want);
        let mapped = MappedTrace::open(path).expect("the file passes its checksums");
        for plan in &plans {
            let result = replay(&mapped, plan, None);
            assert!(
                matches!(result, Err(ReplayStreamError::Corrupt(_))),
                "{path}: {plan:?}: {result:?}"
            );
        }
        for allocator in ["first-fit", "bsd"] {
            let out = Command::new(env!("CARGO_BIN_EXE_lifepred"))
                .args(["simulate", path, "--allocator", allocator])
                .output()
                .expect("spawn lifepred");
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{path} {allocator}: {err}");
            let prefix = format!("lifepred: {path}: invalid event stream: the events allocate ");
            assert!(err.starts_with(&prefix), "{err}");
            assert!(err.contains("but the header says"), "{err}");
        }
    }
}

/// A CRC-valid trace whose first allocation event swaps sizes with the
/// first one of another size: the header totals still hold, so only a
/// reader that reads each allocation's record beside its event can
/// tell. Both predicting plans do, and refuse the file with the object,
/// and `simulate --predictor online` exits 1. First-fit and BSD read no
/// records and replay it: `inspect --verify` is the way to check such a
/// file before a non-predicting replay, and it refuses it, as does
/// `load_trace`.
#[test]
fn events_that_disagree_with_their_records_in_size_are_corrupt() {
    use std::process::Command;
    let dir = Scratch::new("size-swap");
    let cfrac = by_name("cfrac").expect("workload");
    let trace = record(cfrac.as_ref(), 0, shared_registry());
    let sizes: Vec<u32> = trace.records().iter().map(|r| r.size).collect();
    let other = (sizes.iter())
        .position(|&size| size != sizes[0])
        .expect("cfrac allocates more than one size");
    let swapped = dir.path("swapped.lpt");
    write_resized(&swapped, &trace, |n, size| match n {
        0 => sizes[other],
        n if n == other => sizes[0],
        _ => size,
    });

    let db = ShortLivedSet::empty(SiteConfig::default(), 32 * 1024);
    let arena = ArenaConfig::default();
    let online = ReplayPlan::ArenaOnline {
        sites: SiteConfig::default(),
        epoch: lifepred_adaptive::EpochConfig::default(),
        arena,
    };
    let mapped = MappedTrace::open(&swapped).expect("the file passes its checksums");
    let detail = format!(
        "object 0: the event allocates {} bytes, its record says {}",
        sizes[other], sizes[0]
    );
    for plan in [ReplayPlan::Arena { db: &db, arena }, online] {
        match replay(&mapped, &plan, None) {
            Err(ReplayStreamError::Corrupt(got)) => assert_eq!(got, detail, "{plan:?}"),
            other => panic!("{plan:?}: {other:?}"),
        }
    }
    for plan in [ReplayPlan::FirstFit, ReplayPlan::Bsd] {
        assert!(replay(&mapped, &plan, None).is_ok(), "{plan:?}");
    }
    let out = Command::new(env!("CARGO_BIN_EXE_lifepred"))
        .args(["simulate", &swapped, "--predictor", "online"])
        .output()
        .expect("spawn lifepred");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    let expected = format!("lifepred: {swapped}: invalid event stream: {detail}");
    assert!(err.starts_with(&expected), "{err}");
    let want = format!(
        "malformed events section: event 0 allocates object 0: {} bytes, its record says {}",
        sizes[other], sizes[0]
    );
    refused_by_the_walk(&swapped, &want);
}

/// A CRC-valid trace whose first record's lifetime code is one more
/// than recorded: object 0 is then promised a death one byte later than
/// the event that frees it. Sizes, sites and totals all hold and no
/// replay reads a death clock, so all four replay it and return what
/// they return for the recorded file; `inspect --verify` and
/// `load_trace` refuse it at the free.
#[test]
fn records_whose_lifetimes_are_off_by_one_are_corrupt() {
    let dir = Scratch::new("lifetime-shift");
    let good = dir.path("good.lpt");
    run(&["record", "--workload", "cfrac", "-o", &good]).expect("record");
    let mut bytes = std::fs::read(&good).expect("read");
    let records = records_payload(&bytes);
    // Skip the count and record 0's size and chain: the next varint is
    // its lifetime code.
    let mut pos = records.start;
    for _ in 0..3 {
        while bytes[pos] & 0x80 != 0 {
            pos += 1;
        }
        pos += 1;
    }
    // Its first byte holds the code's lowest seven bits, so adding 1
    // to it adds 1 to the code while they do not carry.
    let low = bytes[pos];
    assert!(low != 0, "record 0 is mortal");
    assert!(low & 0x7f != 0x7f, "the increment does not carry");
    bytes[pos] = low + 1;
    let mut crc = lifepred_tracefile::Crc32::new();
    crc.update(&bytes[records.clone()]);
    bytes[records.end..records.end + 4].copy_from_slice(&crc.finish().to_le_bytes());
    let shifted = dir.path("shifted.lpt");
    std::fs::write(&shifted, &bytes).expect("write");

    let (recorded, mapped) = (
        MappedTrace::open(&good).expect("open"),
        MappedTrace::open(&shifted),
    );
    let mapped = mapped.expect("the file passes its checksums");
    let db = ShortLivedSet::empty(SiteConfig::default(), 32 * 1024);
    let arena = ArenaConfig::default();
    let online = ReplayPlan::ArenaOnline {
        sites: SiteConfig::default(),
        epoch: lifepred_adaptive::EpochConfig::default(),
        arena,
    };
    let plans = [
        ReplayPlan::FirstFit,
        ReplayPlan::Bsd,
        ReplayPlan::Arena { db: &db, arena },
        online,
    ];
    for plan in &plans {
        let want = replay(&recorded, plan, None).expect("the recorded file replays");
        assert_eq!(
            replay(&mapped, plan, None).expect("replays"),
            want,
            "{plan:?}"
        );
    }
    let record = mapped.records().expect("records").next().expect("a record");
    let death = record
        .expect("record 0 decodes")
        .death_clock
        .expect("mortal");
    let loaded = load_trace(&good).expect("load");
    let free = (loaded.events().into_iter())
        .position(|e| e == ChunkEvent::Free { record: 0 })
        .expect("object 0 is freed");
    let want = format!(
        "malformed events section: event {free} frees object 0 at clock {}, \
         its record says it dies at clock {death}",
        death - 1
    );
    refused_by_the_walk(&shifted, &want);
}

/// The predicting replays read each allocation's record as the events
/// reach it, so a records section that fails partway fails the replay
/// there: with the source's error, not a panic and not `Corrupt`.
#[test]
fn a_records_section_failing_partway_fails_the_replay_with_its_error() {
    let dir = Scratch::new("records-partway");
    let path = dir.path("two.lpt");
    write_two_allocation_trace(&path, 2);
    let mut bytes = std::fs::read(&path).expect("read");
    let records = records_payload(&bytes);
    // The last byte of record 1 now continues a varint past the end of
    // the payload; the CRC is recomputed to match.
    bytes[records.end - 1] |= 0x80;
    let mut crc = lifepred_tracefile::Crc32::new();
    crc.update(&bytes[records.clone()]);
    bytes[records.end..records.end + 4].copy_from_slice(&crc.finish().to_le_bytes());
    std::fs::write(&path, &bytes).expect("write");

    let mapped = MappedTrace::open_unverified(&path).expect("framing and header are intact");
    let mut walk = mapped.records().expect("the records CRC matches");
    assert!(matches!(walk.next(), Some(Ok(_))), "record 0 decodes");
    assert!(matches!(walk.next(), Some(Err(_))), "record 1 does not");
    let db = ShortLivedSet::empty(SiteConfig::default(), 32 * 1024);
    let arena = ArenaConfig::default();
    let online = ReplayPlan::ArenaOnline {
        sites: SiteConfig::default(),
        epoch: lifepred_adaptive::EpochConfig::default(),
        arena,
    };
    for plan in [ReplayPlan::Arena { db: &db, arena }, online] {
        match replay(&mapped, &plan, None) {
            Err(ReplayStreamError::Source(e)) => {
                assert!(e.to_string().contains("records"), "{plan:?}: {e}")
            }
            other => panic!("{plan:?}: expected the records' error, got {other:?}"),
        }
    }
}

#[test]
fn metrics_out_refuses_overwrite_without_force() {
    let dir = Scratch::new("force");
    let trace = dir.path("cfrac.lpt");
    let metrics = dir.path("m.json");
    run(&["record", "--workload", "cfrac", "-o", &trace]).expect("record");

    run(&[
        "simulate",
        &trace,
        "--allocator",
        "first-fit",
        "--metrics-out",
        &metrics,
    ])
    .expect("first dump");
    let first = std::fs::read_to_string(&metrics).expect("dump written");

    // A second dump to the same path is refused before any simulation
    // runs, and the original file is untouched.
    let err = run(&[
        "simulate",
        &trace,
        "--allocator",
        "first-fit",
        "--metrics-out",
        &metrics,
    ])
    .expect_err("overwrite must be refused");
    assert!(err.contains("already exists"), "error: {err}");
    assert!(err.contains("--force"), "error must mention --force: {err}");
    assert_eq!(
        std::fs::read_to_string(&metrics).expect("still there"),
        first,
        "refused overwrite must not touch the file"
    );

    // --force allows it.
    run(&[
        "simulate",
        &trace,
        "--allocator",
        "first-fit",
        "--metrics-out",
        &metrics,
        "--force",
    ])
    .expect("forced overwrite");

    // `native` honors the same guard.
    let nm = dir.path("native.json");
    run(&["native", "cfrac", "--metrics-out", &nm]).expect("native dump");
    assert!(run(&["native", "cfrac", "--metrics-out", &nm]).is_err());
    run(&["native", "cfrac", "--metrics-out", &nm, "--force"]).expect("forced native dump");
}

#[test]
fn argument_errors_are_reported() {
    assert!(run(&["frobnicate"]).is_err());
    assert!(run(&["record"]).is_err(), "missing --workload");
    assert!(run(&["record", "--workload", "nosuch", "-o", "x.lpt"]).is_err());
    assert!(run(&[
        "record",
        "--workload",
        "cfrac",
        "--input",
        "99",
        "-o",
        "x.lpt"
    ])
    .is_err());
    assert_eq!(
        run(&[
            "record",
            "--workload",
            "cfrac",
            "--input",
            "1",
            "--input",
            "1",
            "-o",
            "c{}.lpt"
        ])
        .expect_err("repeated --input"),
        "record: --input 1 is repeated"
    );
    assert!(run(&["train", "-o", "x.json"]).is_err(), "no traces");
    assert!(run(&["simulate"]).is_err(), "no file");
    assert!(run(&["train", "a.lpt", "-o", "x.json", "--policy", "bogus"]).is_err());
    assert_eq!(
        run(&["trace", "cfrac"]).expect_err("no trace command"),
        "unknown command \"trace\" (try `lifepred --help`)"
    );
    for gone in ["serve", "sweep"] {
        assert_eq!(
            run(&[gone, "run"]).expect_err(gone),
            format!("unknown command {gone:?} (try `lifepred --help`)")
        );
    }
    // Flags a run would silently ignore are refused, before any file is
    // read. A trained predictor carries its own policy, rounding and
    // threshold; the baselines take no learner knobs at all.
    let learner_flags = [
        ["--policy", "len-2"],
        ["--rounding", "8"],
        ["--threshold", "4096"],
        ["--epoch", "8192"],
        ["--requalify", "2"],
    ];
    for backend in [
        ["--predictor", "pred.json"],
        ["--allocator", "first-fit"],
        ["--allocator", "bsd"],
    ] {
        for flag in learner_flags {
            let args = [&["simulate", "t.lpt"][..], &backend, &flag].concat();
            assert_eq!(
                run(&args).expect_err("ignored flag"),
                format!("simulate: {} is only used by --predictor online", flag[0]),
                "{args:?}"
            );
        }
    }
    assert_eq!(
        run(&["report", "--workload", "cfrac", "--threshold", "4096"]).expect_err("no --drag"),
        "report: --threshold is only used by --drag"
    );
    assert_eq!(
        run(&[
            "report",
            "--drag",
            "--workload",
            "cfrac",
            "--policy",
            "len-2"
        ])
        .expect_err("--drag"),
        "report: --policy is not used by --drag"
    );
    let usage = run(&["--help"]).expect("help");
    assert!(usage.contains("USAGE"));
    let usage = run(&[]).expect("no args prints usage");
    assert!(usage.contains("lifepred"));
}

/// Every command line is read by one table: a flag given a value and a
/// single-valued option given twice are refused, not misread, and
/// `--help` shows every option a command takes.
#[test]
fn flags_are_read_by_their_row_or_refused() {
    let dir = Scratch::new("arg-table");
    let trace = dir.path("t.lpt");
    run(&["gen", "--events", "2k", "-o", &trace]).expect("gen");
    let before = std::fs::read(&trace).expect("trace");
    assert_eq!(
        run(&["gen", "--events", "3k", "-o", &trace, "--force=no"]).expect_err("--force=no"),
        "gen: --force takes no value"
    );
    assert_eq!(std::fs::read(&trace).expect("trace"), before, "file kept");
    assert_eq!(
        run(&["inspect", &trace, "--verify=false"]).expect_err("--verify=false"),
        "inspect: --verify takes no value"
    );
    let x = dir.path("x.lpt");
    assert_eq!(
        run(&[
            "record",
            "--workload",
            "cfrac",
            "--workload",
            "gawk",
            "-o",
            &x
        ])
        .expect_err("two workloads"),
        "record: --workload gawk is repeated"
    );
    assert!(!std::path::Path::new(&x).exists(), "nothing recorded");
    let help = run(&["--help"]).expect("help");
    for command in ["gen", "simulate", "native"] {
        let usage = help
            .split("\n\n")
            .find(|block| {
                block
                    .trim_start()
                    .starts_with(&format!("lifepred {command} "))
            })
            .unwrap_or_else(|| panic!("no usage for {command} in\n{help}"));
        assert!(usage.contains("[--force]"), "{usage}");
    }
}

/// A JSON input refuses nesting too deep for the recursive parser
/// with a typed message. Only the real binary shows it: a stack
/// overflow aborts the process, test harness included.
#[test]
fn deeply_nested_json_is_refused_not_a_stack_overflow() {
    let dir = Scratch::new("deep-json");
    let deep = dir.path("deep.json");
    std::fs::write(&deep, "[".repeat(200_000)).expect("write");
    let args = ["simulate", "t.lpt", "--predictor", &deep];
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_lifepred"))
        .args(args)
        .output()
        .expect("spawn lifepred");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
    assert!(err.contains("value nested too deeply"), "{args:?}: {err}");
}
