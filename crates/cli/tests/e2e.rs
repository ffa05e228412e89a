//! End-to-end tests for the `lifepred` CLI: the record → train →
//! simulate pipeline, cross-checks between the streaming and in-memory
//! replay paths, and error handling on damaged inputs.

#[path = "../../adaptive/tests/support/scan_all.rs"]
mod scan_all;

use lifepred_heap::{replay_arena, replay_bsd, replay_firstfit, site_fingerprints, ReplayConfig};
use lifepred_trace::{shared_registry, EventKind};
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
    let cfg = ReplayConfig::default();
    assert_eq!(
        replay_firstfit(&in_memory, &cfg),
        replay_firstfit(&reloaded, &cfg)
    );
    assert_eq!(replay_bsd(&in_memory, &cfg), replay_bsd(&reloaded, &cfg));

    // And the streaming simulate path must agree with both: simulate
    // under an empty-equivalent and a real predictor.
    let pred = dir.path("pred.json");
    run(&["train", &trace_path, "-o", &pred]).expect("train");
    let json = std::fs::read_to_string(&pred).expect("read predictor");
    let db = lifepred_core::ShortLivedSet::from_json(&json).expect("parse predictor");
    let expected = replay_arena(&in_memory, &db, &cfg);
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
    let expected = replay_firstfit(&in_memory, &cfg);
    assert!(out.contains(&format!("max heap bytes: {}", expected.max_heap_bytes)));
    let out = run(&["simulate", &trace_path, "--allocator", "bsd"]).expect("bsd");
    let expected = replay_bsd(&in_memory, &cfg);
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
fn simulate_metrics_out_dumps_registry_and_stats_renders_it() {
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
    // The CLI builds lifepred-obs with `timing`, so event wall times
    // really land.
    assert!(
        snap.histogram("lifepred_sim_event_ns")
            .is_some_and(|h| h.count > 0),
        "timing feature must fill the latency histogram"
    );
    let timeline = snap.timeline("lifepred_sim_epochs").expect("timeline");
    assert!(!timeline.is_empty(), "online run must sample epochs");
    // Learner gauges ride along in the same dump.
    assert!(snap.gauge("lifepred_learner_epochs").is_some());

    // `stats` renders the same registry as Prometheus text…
    let prom = run(&["stats", &metrics]).expect("stats");
    assert!(
        prom.contains("# TYPE lifepred_sim_allocs_total counter"),
        "prometheus output: {prom}"
    );
    assert!(prom.contains(&format!("lifepred_sim_allocs_total {allocs}")));
    assert!(prom.contains("lifepred_sim_size_bytes_bucket"));
    assert!(prom.contains("lifepred_sim_epochs_samples"));
    // …and as JSON, round-tripping exactly.
    let json_again = run(&["stats", &metrics, "--format", "json"]).expect("stats json");
    assert_eq!(
        lifepred_obs::Snapshot::from_json(&json_again).expect("reparse"),
        snap,
        "stats --format json must round-trip the dump"
    );

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

    // Error paths: bad dump file, bad format.
    let junk = dir.path("junk.json");
    std::fs::write(&junk, "{\"schema\": \"other\"}").expect("write");
    assert!(run(&["stats", &junk]).is_err());
    assert!(run(&["stats", &metrics, "--format", "xml"]).is_err());
    assert!(run(&["stats"]).is_err(), "stats needs a file");
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
    let sites = site_fingerprints(&loaded, &lifepred_core::SiteConfig::default());
    let mut oracle = scan_all::ScanAllReplay::new(lifepred_adaptive::EpochConfig::default());
    for event in loaded.events() {
        match event.kind {
            EventKind::Alloc => {
                let size = loaded.records()[event.record].size;
                oracle.alloc(event.record, sites[event.record], size);
            }
            EventKind::Free => oracle.free(event.record),
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
    let sections = format!(
        "
sections ({backing}, 109 file bytes):
  meta                 19 bytes
  functions            11 bytes             2 entries
  chains                7 bytes             3 entries
  records              24 bytes             3 entries
  events               10 bytes             4 entries
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
            "\nverified: 3 records, 4 events, all checksums good\n",
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
fn sweep_run_resume_render_and_diff() {
    let dir = Scratch::new("sweep");
    let trace = dir.path("cfrac.lpt");
    let spec = dir.path("grid.json");
    let store = dir.path("store");
    run(&["record", "--workload", "cfrac", "-o", &trace]).expect("record");
    std::fs::write(
        &spec,
        format!(
            r#"{{"schema": "lifepred-sweep-v1", "name": "cli-grid",
                "traces": [{trace:?}],
                "backends": ["offline", "firstfit"],
                "thresholds": [16384, 32768]}}"#
        ),
    )
    .expect("write spec");

    // Cold run: 4 cells, but first-fit ignores the threshold axis so
    // only 3 unique executions happen.
    let out = run(&["sweep", "run", "--spec", &spec, "--store", &store]).expect("cold run");
    assert!(out.contains("backend=offline"), "table output: {out}");
    assert!(out.contains("backend=firstfit"), "table output: {out}");
    assert!(
        out.contains("run: 4 cells (3 unique), 0 cached, 3 computed"),
        "summary: {out}"
    );

    // Resume answers everything from the cache.
    let out = run(&["sweep", "resume", "--spec", &spec, "--store", &store]).expect("resume");
    assert!(
        out.contains("resume: 4 cells (3 unique), 3 cached, 0 computed"),
        "summary: {out}"
    );

    // Render to CSV and JSON files; identical JSON reports diff clean.
    let csv = dir.path("report.csv");
    run(&[
        "sweep", "render", "--spec", &spec, "--store", &store, "--format", "csv", "--out", &csv,
    ])
    .expect("render csv");
    let csv_text = std::fs::read_to_string(&csv).expect("csv written");
    assert!(
        csv_text.lines().count() >= 5,
        "header + 4 cells: {csv_text}"
    );

    let a = dir.path("a.json");
    let b = dir.path("b.json");
    for path in [&a, &b] {
        run(&[
            "sweep", "render", "--spec", &spec, "--store", &store, "--format", "json", "--out",
            path,
        ])
        .expect("render json");
    }
    let out = run(&["sweep", "diff", &a, &b]).expect("diff");
    assert!(out.contains("no differences"), "diff: {out}");

    // Argument and input errors surface cleanly.
    assert!(run(&["sweep"]).is_err(), "subcommand required");
    assert!(run(&["sweep", "frob"]).is_err(), "unknown subcommand");
    assert!(
        run(&["sweep", "run", "--store", &store]).is_err(),
        "--spec required"
    );
    assert!(run(&["sweep", "run", "--spec", &spec, "--store", &store, "--format", "xml"]).is_err());
    assert!(run(&["sweep", "diff", &a]).is_err(), "diff needs two files");
    let junk = dir.path("junk.json");
    std::fs::write(&junk, "{not json").expect("write");
    assert!(run(&["sweep", "run", "--spec", &junk, "--store", &store]).is_err());
    assert!(run(&["sweep", "diff", &a, &junk]).is_err());
    assert!(run(&["serve", "--addr", "not-an-address"]).is_err());
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
    assert!(run(&["train", "-o", "x.json"]).is_err(), "no traces");
    assert!(run(&["simulate"]).is_err(), "no file");
    assert!(run(&["train", "a.lpt", "-o", "x.json", "--policy", "bogus"]).is_err());
    let usage = run(&["--help"]).expect("help");
    assert!(usage.contains("USAGE"));
    let usage = run(&[]).expect("no args prints usage");
    assert!(usage.contains("lifepred"));
}

/// The `audit` subcommand must honor the documented exit-code
/// contract end to end — 0 clean, 1 deny findings, 2 usage error —
/// which only the real binary can pin (the in-process harness maps
/// everything to `Result`).
#[test]
fn audit_subcommand_exit_code_contract() {
    use std::process::Command;
    let fixtures = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../audit/tests/fixtures");
    let bin = env!("CARGO_BIN_EXE_lifepred");

    // 0: a clean tree.
    let clean = fixtures.join("clean");
    let out = Command::new(bin)
        .args(["audit", "check", "--root", clean.to_str().unwrap()])
        .output()
        .expect("spawn lifepred");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("0 deny, 0 warn"), "{text}");

    // 1: the cross-file fixture's seeded violations.
    let bad = fixtures.join("crossfile");
    let out = Command::new(bin)
        .args(["audit", "check", "--root", bad.to_str().unwrap()])
        .output()
        .expect("spawn lifepred");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    for rule in [
        "lock-order",
        "alloc-reentrancy",
        "atomic-pairing",
        "panic-surface",
    ] {
        assert!(text.contains(&format!("deny[{rule}]")), "{text}");
    }
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("lifepred: audit:"), "{err}");

    // 2: a usage error.
    let out = Command::new(bin)
        .args(["audit", "check", "--frobnicate"])
        .output()
        .expect("spawn lifepred");
    assert_eq!(out.status.code(), Some(2), "{out:?}");

    // The rule registry is reachable through the subcommand too.
    let out = Command::new(bin)
        .args(["audit", "rules"])
        .output()
        .expect("spawn lifepred");
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("alloc-reentrancy"), "{text}");
}
