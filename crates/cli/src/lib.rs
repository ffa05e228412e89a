//! Implementation of the `lifepred` command-line tool.
//!
//! The binary wires the workspace together end to end:
//!
//! * `record` runs an instrumented workload and persists the trace as
//!   an `.lpt` file ([`lifepred_tracefile`]);
//! * `gen` streams a synthetic `server` trace of any size straight to
//!   an `.lpt` file;
//! * `inspect` prints an `.lpt` header (and, on request, verifies the
//!   whole file) in constant memory;
//! * `train` profiles one or more traces and saves the short-lived
//!   site database as JSON;
//! * `simulate` streams a trace through an allocator model, consulting
//!   a saved predictor, optionally dumping the run's metric registry
//!   as JSON (`--metrics-out`);
//! * `stats` renders a saved metrics dump as Prometheus text or JSON;
//! * `report` reruns the paper's prediction-quality analysis (online
//!   columns sourced from the metric registry);
//! * `native` activates [`lifepred_galloc`]'s `LifepredGlobal` (the
//!   binary's `#[global_allocator]`) and runs workloads through it for
//!   real — every allocation the workload makes is served by the
//!   size-class allocator, and its counters are reported afterwards;
//! * `sweep` expands a declarative grid spec into the paper's
//!   design-space evaluation ([`lifepred_sweep`]), caching every cell
//!   so re-runs and resumes recompute only what changed.
//!
//! Everything routes through [`run`], which writes to a caller-provided
//! sink so integration tests can capture output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use lifepred_adaptive::{EpochConfig, LearnerStats};
use lifepred_bench::format_table;
use lifepred_core::{
    train, Profile, ShortLivedSet, SiteConfig, SitePolicy, TrainConfig, DEFAULT_THRESHOLD,
};
use lifepred_heap::{ArenaConfig, ReplayPlan, ReplayReport};
use lifepred_obs::{Registry, Snapshot};
use lifepred_sweep::{
    diff_reports, install_shutdown_handlers, render_csv, render_json, render_table, run_jobs,
    run_sweep, simulate_file, CancelFlag, GridSpec, ResultStore,
};
use lifepred_trace::{shared_registry, AllocationRecord, TraceSource};
use lifepred_tracefile::{save_trace, MappedTrace};
use lifepred_workloads::server::sim::SimConfig;
use lifepred_workloads::server::synth::generate_lpt;
use lifepred_workloads::{all_workloads, by_name, record as record_workload, Workload};
use std::fmt::Display;
use std::io::Write;

const USAGE: &str = "\
lifepred — trace, train and simulate lifetime-predicting allocation

USAGE:
    lifepred record --workload <name> [--input <n>]... -o <file.lpt>
    lifepred gen --events <n[k|m|g]> -o <file.lpt> [--seed <n>] [--force]
    lifepred inspect <file.lpt> [--functions] [--chains] [--verify]
                     [--sections] [--head <n>]
    lifepred train <file.lpt>... -o <pred.json> [--policy <p>] [--rounding <n>] [--threshold <bytes>]
    lifepred simulate <file.lpt>... --predictor <pred.json|online> [--allocator <a>]
                      [--policy <p>] [--rounding <n>] [--threshold <bytes>]
                      [--epoch <bytes>] [--requalify <k>] [--metrics-out <m.json>]
                      [--jobs <n>]
    lifepred stats <m.json> [--format <prometheus|json>]
    lifepred report [--workload <name>]... [--policy <p>] [--jobs <n>]
    lifepred report --drag [--workload <name>]... [--threshold <bytes>] [--jobs <n>]
    lifepred native [<workload>]... [--metrics-out <m.json>]
    lifepred sweep run|resume|render --spec <grid.json> [--store <dir>]
                      [--jobs <n>] [--format <table|csv|json>] [--out <file>]
    lifepred sweep diff <before.json> <after.json>

OPTIONS:
    --workload <name>     one of: cfrac, espresso, gawk, ghost, perl, server
    --input <n>           input index (record; repeatable, default 0);
                          with several inputs, -o must contain {} which
                          is replaced by the input index
    -o, --output <file>   output path
    --policy <p>          site policy: complete (default), len-N, cce, size-only
    --rounding <n>        size rounding in bytes (default 4)
    --threshold <bytes>   short-lived threshold (default 32768)
    --predictor <file>    trained predictor JSON (from `lifepred train`),
                          or the literal `online` to train in-place while
                          simulating (arena allocator only)
    --allocator <a>       arena (default), first-fit or bsd
    --epoch <bytes>       online: epoch length (default 2x threshold)
    --requalify <k>       online: clean epochs a demoted site must show
                          before re-qualifying (default 3)
    --metrics-out <file>  simulate: dump the run's metric registry
                          (counters, histograms, epoch timeline) as JSON;
                          with several traces, per-run registries are
                          merged into one dump
    --force               simulate/native: allow --metrics-out to
                          overwrite an existing file
    --jobs <n>            simulate/report/sweep: worker threads
                          for independent runs (default 1)
    --format <f>          stats: prometheus (default) or json;
                          sweep: table (default), csv or json
    --events <n[k|m|g]>   gen: events to target (k/m/g = 10^3/10^6/10^9);
                          the synthetic server run lands within a few
                          percent of this
    --seed <n>            gen: simulation seed (default 1)
    --functions           inspect: list the function registry
    --chains              inspect: list the interned call chains
    --verify              inspect: check all five section CRCs at open,
                          then decode every record and every event
    --sections            inspect: list section framing and sizes only
                          (maps the file; decodes no events)
    --head <n>            inspect: print the first n events (maps the
                          file; decodes only what it prints)
    --spec <grid.json>    sweep: declarative grid spec (schema
                          lifepred-sweep-v1; see DESIGN.md section 13)
    --store <dir>         sweep: content-addressed result cache
                          directory (default sweep-cache)
    --out <file>          sweep: write the rendered report to a file
                          instead of stdout
    --drag                report: per-arena liveness timelines and object
                          drag (bytes between last touch and free) instead
                          of prediction quality
";

/// Entry point shared by the binary and the integration tests.
///
/// `args` excludes the program name. All regular output goes to `out`;
/// errors come back as human-readable strings.
///
/// # Errors
///
/// Returns a message describing the first bad argument, I/O failure or
/// malformed input file.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    match args.first().map(String::as_str) {
        None | Some("--help" | "-h" | "help") => write_out(out, USAGE),
        Some(name) => match COMMANDS.iter().find(|(n, _)| *n == name) {
            Some((_, command)) => command(&args[1..], out),
            None => Err(format!("unknown command {name:?} (try `lifepred --help`)")),
        },
    }
}

/// A subcommand: its arguments (after the name) and the output sink.
type Command = fn(&[String], &mut dyn Write) -> Result<(), String>;

/// Every subcommand [`run`] dispatches, in the order USAGE lists them.
const COMMANDS: &[(&str, Command)] = &[
    ("record", cmd_record),
    ("gen", cmd_gen),
    ("inspect", cmd_inspect),
    ("train", cmd_train),
    ("simulate", cmd_simulate),
    ("stats", cmd_stats),
    ("report", cmd_report),
    ("native", cmd_native),
    ("sweep", cmd_sweep),
];

// ---------------------------------------------------------------------
// Argument scanning
// ---------------------------------------------------------------------

/// One parsed argument: an option (with the value still pending unless
/// attached via `=`) or a positional.
enum Arg<'a> {
    Opt(&'a str, Option<&'a str>),
    Positional(&'a str),
}

struct Scanner<'a> {
    args: &'a [String],
    i: usize,
}

impl<'a> Scanner<'a> {
    fn new(args: &'a [String]) -> Self {
        Scanner { args, i: 0 }
    }

    fn next(&mut self) -> Option<Arg<'a>> {
        let raw = self.args.get(self.i)?;
        self.i += 1;
        if let Some(rest) = raw.strip_prefix("--") {
            match rest.split_once('=') {
                Some((name, value)) => Some(Arg::Opt(name, Some(value))),
                None => Some(Arg::Opt(rest, None)),
            }
        } else if raw.len() > 1 && raw.starts_with('-') {
            Some(Arg::Opt(&raw[1..], None))
        } else {
            Some(Arg::Positional(raw))
        }
    }

    /// The value of the option just returned: attached (`--x=v`) or the
    /// following argument.
    fn value(&mut self, name: &str, attached: Option<&'a str>) -> Result<&'a str, String> {
        if let Some(v) = attached {
            return Ok(v);
        }
        let v = self
            .args
            .get(self.i)
            .ok_or_else(|| format!("option --{name} needs a value"))?;
        self.i += 1;
        Ok(v)
    }
}

fn parse_num<T: std::str::FromStr>(name: &str, text: &str) -> Result<T, String>
where
    T::Err: Display,
{
    text.parse()
        .map_err(|e| format!("bad value for --{name} ({e})"))
}

fn parse_policy(text: &str) -> Result<SitePolicy, String> {
    SitePolicy::parse(text).ok_or_else(|| {
        format!("unknown policy {text:?} (expected complete, len-N, cce or size-only)")
    })
}

fn write_out(out: &mut dyn Write, text: impl Display) -> Result<(), String> {
    write!(out, "{text}").map_err(|e| format!("write failed: {e}"))
}

fn file_err(path: &str, e: impl Display) -> String {
    format!("{path}: {e}")
}

/// Maps a [`run`] error message to a process exit code: usage and
/// configuration errors (messages starting with `usage:`) exit 2,
/// everything else exits 1.
#[must_use]
pub fn exit_code(err: &str) -> u8 {
    if err.starts_with("usage:") {
        2
    } else {
        1
    }
}

// ---------------------------------------------------------------------
// record
// ---------------------------------------------------------------------

fn cmd_record(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let mut workload = None;
    let mut inputs: Vec<usize> = Vec::new();
    let mut output = None;
    let mut s = Scanner::new(args);
    while let Some(arg) = s.next() {
        match arg {
            Arg::Opt("workload", v) => workload = Some(s.value("workload", v)?.to_owned()),
            Arg::Opt("input", v) => match parse_num("input", s.value("input", v)?)? {
                i if inputs.contains(&i) => return Err(format!("record: --input {i} is repeated")),
                i => inputs.push(i),
            },
            Arg::Opt("o" | "output", v) => output = Some(s.value("output", v)?.to_owned()),
            Arg::Opt(o, _) => return Err(format!("record: unknown option --{o}")),
            Arg::Positional(p) => return Err(format!("record: unexpected argument {p:?}")),
        }
    }
    let name = workload.ok_or("record: --workload is required")?;
    let output = output.ok_or("record: -o is required")?;
    let w = workload_named(&name)?;
    if inputs.is_empty() {
        inputs.push(0);
    }
    let available = w.inputs();
    for &i in &inputs {
        if i >= available.len() {
            return Err(format!(
                "workload {name} has inputs 0..{} ({})",
                available.len() - 1,
                available.join(", ")
            ));
        }
    }
    if inputs.len() > 1 && !output.contains("{}") {
        return Err("record: with several inputs, -o must contain {} \
                    (replaced by the input index)"
            .to_owned());
    }
    // One registry across all inputs so allocation sites map between
    // the produced traces (train on one, simulate on another).
    let registry = shared_registry();
    for &i in &inputs {
        let trace = record_workload(w.as_ref(), i, registry.clone());
        let path = output.replace("{}", &i.to_string());
        save_trace(&path, &trace).map_err(|e| file_err(&path, e))?;
        let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        write_out(
            out,
            format!(
                "{path}: {} ({} objects, {} bytes allocated, {} file bytes)\n",
                trace.name(),
                trace.stats().total_objects,
                trace.stats().total_bytes,
                bytes
            ),
        )?;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// gen
// ---------------------------------------------------------------------

/// Parses an event-count target with an optional k/m/g suffix.
fn parse_events(text: &str) -> Result<u64, String> {
    let (digits, scale) = match text.as_bytes().last() {
        Some(b'k' | b'K') => (&text[..text.len() - 1], 1_000u64),
        Some(b'm' | b'M') => (&text[..text.len() - 1], 1_000_000),
        Some(b'g' | b'G') => (&text[..text.len() - 1], 1_000_000_000),
        _ => (text, 1),
    };
    let n: u64 = parse_num("events", digits)?;
    n.checked_mul(scale)
        .filter(|&n| n > 0)
        .ok_or_else(|| format!("bad value for --events ({text:?})"))
}

/// Peak resident set size of this process in bytes, if the platform
/// exposes it (`VmHWM` on Linux).
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

fn cmd_gen(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let mut events = None;
    let mut seed = 1u64;
    let mut output = None;
    let mut force = false;
    let mut s = Scanner::new(args);
    while let Some(arg) = s.next() {
        match arg {
            Arg::Opt("events", v) => events = Some(parse_events(s.value("events", v)?)?),
            Arg::Opt("seed", v) => seed = parse_num("seed", s.value("seed", v)?)?,
            Arg::Opt("o" | "output", v) => output = Some(s.value("output", v)?.to_owned()),
            Arg::Opt("force", _) => force = true,
            Arg::Opt(o, _) => return Err(format!("gen: unknown option --{o}")),
            Arg::Positional(p) => return Err(format!("gen: unexpected argument {p:?}")),
        }
    }
    let events = events.ok_or("gen: --events is required")?;
    let output = output.ok_or("gen: -o is required")?;
    guard_overwrite(&output, force)?;
    let config = SimConfig::for_events(events, seed);
    let file = std::fs::File::create(&output).map_err(|e| file_err(&output, e))?;
    let sink = std::io::BufWriter::with_capacity(1 << 20, file);
    let started = std::time::Instant::now();
    let (summary, sink) = match generate_lpt(&config, sink) {
        Ok(done) => done,
        Err(e) => {
            // Don't leave a half-written trace behind.
            std::fs::remove_file(&output).ok();
            return Err(file_err(&output, e));
        }
    };
    let elapsed = started.elapsed();
    drop(sink);
    let file_bytes = std::fs::metadata(&output).map(|m| m.len()).unwrap_or(0);
    let mut text = format!(
        "{output}: {} events, {} objects ({} immortal), {} bytes allocated\n\
         file:           {} bytes ({:.2} bytes/event)\n\
         generated in:   {:.2}s ({:.1}M events/s)\n",
        summary.events,
        summary.objects,
        summary.immortal,
        summary.total_bytes,
        file_bytes,
        file_bytes as f64 / summary.events as f64,
        elapsed.as_secs_f64(),
        summary.events as f64 / elapsed.as_secs_f64() / 1e6,
    );
    if let Some(rss) = peak_rss_bytes() {
        text.push_str(&format!(
            "peak rss:       {} bytes ({:.2}x file size)\n",
            rss,
            rss as f64 / file_bytes.max(1) as f64
        ));
    }
    write_out(out, &text)
}

// ---------------------------------------------------------------------
// inspect
// ---------------------------------------------------------------------

fn cmd_inspect(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let mut path = None;
    let mut functions = false;
    let mut chains = false;
    let mut verify = false;
    let mut sections = false;
    let mut head: Option<u64> = None;
    let mut s = Scanner::new(args);
    while let Some(arg) = s.next() {
        match arg {
            Arg::Opt("functions", _) => functions = true,
            Arg::Opt("chains", _) => chains = true,
            Arg::Opt("verify", _) => verify = true,
            Arg::Opt("sections", _) => sections = true,
            Arg::Opt("head", v) => head = Some(parse_num("head", s.value("head", v)?)?),
            Arg::Opt(o, _) => return Err(format!("inspect: unknown option --{o}")),
            Arg::Positional(p) if path.is_none() => path = Some(p.to_owned()),
            Arg::Positional(p) => return Err(format!("inspect: unexpected argument {p:?}")),
        }
    }
    let path = path.ok_or("inspect: a trace file is required")?;
    // Every view but `--verify` reads header sections and framing (and
    // at most a prefix of the events): skip the bulk CRC of the two
    // large sections unless the user asked for it.
    let mapped = if verify {
        MappedTrace::open(&path)
    } else {
        MappedTrace::open_unverified(&path)
    }
    .map_err(|e| file_err(&path, e))?;
    let stats = mapped.stats();
    let mut text = format!(
        "program:         {}\n\
         objects:         {}\n\
         bytes allocated: {}\n\
         max live:        {} bytes / {} objects\n\
         instructions:    {}\n\
         function calls:  {}\n\
         heap refs:       {} ({:.1}% of all refs)\n\
         functions:       {}\n\
         call chains:     {}\n\
         end clock/seq:   {} / {}\n",
        mapped.name(),
        stats.total_objects,
        stats.total_bytes,
        stats.max_live_bytes,
        stats.max_live_objects,
        stats.instructions,
        stats.function_calls,
        stats.heap_refs,
        stats.heap_ref_pct(),
        mapped.registry().len(),
        mapped.chain_table().len(),
        mapped.end_clock(),
        mapped.end_seq(),
    );
    if functions {
        text.push_str("\nfunctions:\n");
        for name in mapped.registry().names() {
            text.push_str("  ");
            text.push_str(name);
            text.push('\n');
        }
    }
    if chains {
        text.push_str("\ncall chains:\n");
        for (_, chain) in mapped.chain_table().iter() {
            let rendered: Vec<&str> = chain
                .frames()
                .iter()
                .map(|f| mapped.registry().name(*f).unwrap_or("?"))
                .collect();
            let line = if rendered.is_empty() {
                "(empty)".to_owned()
            } else {
                rendered.join(">")
            };
            text.push_str("  ");
            text.push_str(&line);
            text.push('\n');
        }
    }
    write_out(out, &text)?;
    if sections {
        let mut text = format!(
            "\nsections ({}, {} file bytes):\n",
            if mapped.is_mapped() { "mmap" } else { "heap" },
            mapped.file_len(),
        );
        for info in mapped.sections() {
            match info.entries {
                Some(n) => text.push_str(&format!(
                    "  {:<10} {:>12} bytes  {:>12} entries\n",
                    info.name, info.payload_bytes, n
                )),
                None => text.push_str(&format!(
                    "  {:<10} {:>12} bytes\n",
                    info.name, info.payload_bytes
                )),
            }
        }
        write_out(out, &text)?;
    }
    if let Some(head) = head {
        use lifepred_trace::{ChunkEvent, ChunkSource, EventChunk};
        let mut text = format!("\nevents (first {head} of {}):\n", mapped.event_count());
        let mut source = mapped.events();
        let mut chunk = EventChunk::new();
        let mut seq = 0u64;
        'outer: while seq < head
            && source
                .next_chunk(&mut chunk)
                .map_err(|e| file_err(&path, e))?
        {
            for event in chunk.events() {
                if seq == head {
                    break 'outer;
                }
                match event {
                    ChunkEvent::Alloc { record, size } => text.push_str(&format!(
                        "  seq {seq:<10} alloc record {record:<12} size {size}\n"
                    )),
                    ChunkEvent::Free { record } => {
                        text.push_str(&format!("  seq {seq:<10} free  record {record}\n"))
                    }
                }
                seq += 1;
            }
        }
        write_out(out, &text)?;
    }
    if verify {
        use lifepred_trace::{ChunkSource, EventChunk, POOLED_CHUNK_EVENTS};
        let mut n_records = 0u64;
        for r in mapped.records().map_err(|e| file_err(&path, e))? {
            r.map_err(|e| file_err(&path, e))?;
            n_records += 1;
        }
        let mut source = mapped.events();
        let mut chunk = EventChunk::with_capacity(POOLED_CHUNK_EVENTS);
        let mut n_events = 0u64;
        while source
            .next_chunk(&mut chunk)
            .map_err(|e| file_err(&path, e))?
        {
            n_events += chunk.len() as u64;
        }
        write_out(
            out,
            format!("\nverified: {n_records} records, {n_events} events, all checksums good\n"),
        )?;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// train
// ---------------------------------------------------------------------

fn cmd_train(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let mut paths: Vec<String> = Vec::new();
    let mut output = None;
    let mut policy = SitePolicy::Complete;
    let mut rounding = 4u32;
    let mut threshold = DEFAULT_THRESHOLD;
    let mut s = Scanner::new(args);
    while let Some(arg) = s.next() {
        match arg {
            Arg::Opt("o" | "output", v) => output = Some(s.value("output", v)?.to_owned()),
            Arg::Opt("policy", v) => policy = parse_policy(s.value("policy", v)?)?,
            Arg::Opt("rounding", v) => rounding = parse_num("rounding", s.value("rounding", v)?)?,
            Arg::Opt("threshold", v) => {
                threshold = parse_num("threshold", s.value("threshold", v)?)?;
            }
            Arg::Opt(o, _) => return Err(format!("train: unknown option --{o}")),
            Arg::Positional(p) => paths.push(p.to_owned()),
        }
    }
    if paths.is_empty() {
        return Err("train: at least one trace file is required".to_owned());
    }
    let output = output.ok_or("train: -o is required")?;
    let config = SiteConfig {
        policy,
        size_rounding: rounding,
    };
    // Each file is profiled straight off its verified mapping; nothing
    // is written until every file has streamed through.
    let mut profile = Profile::new(&config, threshold);
    for path in &paths {
        let mapped = MappedTrace::open(path).map_err(|e| file_err(path, e))?;
        profile = mapped
            .record_source()
            .and_then(|records| profile.absorb(records))
            .map_err(|e| file_err(path, e))?;
    }
    let db = train(
        &profile,
        &TrainConfig {
            threshold,
            ..TrainConfig::default()
        },
    );
    std::fs::write(&output, db.to_json()).map_err(|e| file_err(&output, e))?;
    write_out(
        out,
        format!(
            "{output}: {} short-lived sites (of {} seen, policy {}, threshold {})\n",
            db.len(),
            profile.total_sites(),
            policy,
            threshold
        ),
    )?;
    Ok(())
}

// ---------------------------------------------------------------------
// simulate
// ---------------------------------------------------------------------

fn cmd_simulate(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let mut paths: Vec<String> = Vec::new();
    let mut predictor = None;
    let mut allocator = "arena".to_owned();
    let mut policy = None;
    let mut rounding = None;
    let mut threshold = None;
    let mut epoch_bytes = None;
    let mut requalify = None;
    let mut metrics_out: Option<String> = None;
    let mut force = false;
    let mut jobs = 1usize;
    let mut s = Scanner::new(args);
    while let Some(arg) = s.next() {
        match arg {
            Arg::Opt("predictor", v) => predictor = Some(s.value("predictor", v)?.to_owned()),
            Arg::Opt("allocator", v) => allocator = s.value("allocator", v)?.to_owned(),
            Arg::Opt("policy", v) => policy = Some(parse_policy(s.value("policy", v)?)?),
            Arg::Opt("rounding", v) => {
                rounding = Some(parse_num("rounding", s.value("rounding", v)?)?);
            }
            Arg::Opt("threshold", v) => {
                threshold = Some(parse_num("threshold", s.value("threshold", v)?)?);
            }
            Arg::Opt("epoch", v) => epoch_bytes = Some(parse_num("epoch", s.value("epoch", v)?)?),
            Arg::Opt("requalify", v) => {
                requalify = Some(parse_num("requalify", s.value("requalify", v)?)?);
            }
            Arg::Opt("metrics-out", v) => {
                metrics_out = Some(s.value("metrics-out", v)?.to_owned());
            }
            Arg::Opt("force", _) => force = true,
            Arg::Opt("jobs", v) => jobs = parse_num("jobs", s.value("jobs", v)?)?,
            Arg::Opt(o, _) => return Err(format!("simulate: unknown option --{o}")),
            Arg::Positional(p) => paths.push(p.to_owned()),
        }
    }
    if paths.is_empty() {
        return Err("simulate: at least one trace file is required".to_owned());
    }
    // A trained predictor carries its own site policy, rounding and
    // threshold, and the baselines predict nothing: the learner's knobs
    // would be silently ignored, so they are refused.
    if predictor.as_deref() != Some("online") {
        let given = [
            ("policy", policy.is_some()),
            ("rounding", rounding.is_some()),
            ("threshold", threshold.is_some()),
            ("epoch", epoch_bytes.is_some()),
            ("requalify", requalify.is_some()),
        ];
        if let Some((flag, _)) = given.iter().find(|(_, set)| *set) {
            return Err(format!(
                "simulate: --{flag} is only used by --predictor online"
            ));
        }
    }
    // Resolved once, then shared read-only by every parallel job.
    let db;
    let arena = ArenaConfig::default();
    let plan = match (allocator.as_str(), predictor.as_deref()) {
        (other, Some("online")) if other != "arena" => {
            return Err("simulate: --predictor online requires the arena allocator".to_owned());
        }
        ("arena", Some("online")) => {
            let threshold = threshold.unwrap_or(DEFAULT_THRESHOLD);
            let epoch = EpochConfig {
                threshold,
                epoch_bytes: epoch_bytes.unwrap_or(2 * threshold),
                requalify_epochs: requalify.unwrap_or(3),
                ..EpochConfig::default()
            };
            epoch.validate().map_err(|e| format!("simulate: {e}"))?;
            ReplayPlan::ArenaOnline {
                sites: SiteConfig {
                    policy: policy.unwrap_or(SitePolicy::Complete),
                    size_rounding: rounding.unwrap_or(4),
                },
                epoch,
                arena,
            }
        }
        ("arena", Some(pred_path)) => {
            let json = std::fs::read_to_string(pred_path).map_err(|e| file_err(pred_path, e))?;
            db = ShortLivedSet::from_json(&json).map_err(|e| file_err(pred_path, e))?;
            ReplayPlan::Arena { db: &db, arena }
        }
        ("arena", None) => return Err("simulate: --predictor is required for arena".to_owned()),
        ("first-fit" | "firstfit" | "bsd", Some(_)) => {
            return Err("simulate: --predictor is only used by the arena allocator".to_owned());
        }
        ("first-fit" | "firstfit", None) => ReplayPlan::FirstFit,
        ("bsd", None) => ReplayPlan::Bsd,
        (other, _) => {
            return Err(format!(
                "unknown allocator {other:?} (expected arena, first-fit or bsd)"
            ))
        }
    };
    // Refuse a doomed run up front: if the metrics dump would clobber
    // an existing file, say so before spending time simulating.
    if let Some(path) = metrics_out.as_deref() {
        guard_overwrite(path, force)?;
    }
    // Fan the traces over the worker pool; results come back in input
    // order, so the printed reports match a sequential run exactly.
    let want_metrics = metrics_out.is_some();
    let outcomes = run_jobs(paths, jobs, |_, path| {
        simulate_file(&path, &plan, want_metrics)
    });
    let mut results = Vec::with_capacity(outcomes.len());
    for outcome in outcomes {
        results.push(outcome?);
    }
    if let Some(path) = metrics_out.as_deref() {
        let mut merged = Snapshot::default();
        for r in &results {
            if let Some(snap) = &r.metrics {
                merged.merge(snap);
            }
        }
        write_metrics(out, path, &merged, force)?;
    }
    let mut first = true;
    for r in &results {
        if !first {
            write_out(out, "\n")?;
        }
        first = false;
        write_report(out, &r.report)?;
        if let Some(learner) = &r.learner {
            write_online_stats(out, learner)?;
        }
    }
    Ok(())
}

/// Refuses to clobber an existing `--metrics-out` file unless the user
/// passed `--force`: a metrics dump is a measurement, and silently
/// replacing one hides that the numbers changed.
fn guard_overwrite(path: &str, force: bool) -> Result<(), String> {
    if !force && std::path::Path::new(path).exists() {
        return Err(format!(
            "{path}: already exists (pass --force to overwrite)"
        ));
    }
    Ok(())
}

/// Dumps `snapshot` as JSON to `path` and notes the dump in the
/// regular output.
fn write_metrics(
    out: &mut dyn Write,
    path: &str,
    snapshot: &Snapshot,
    force: bool,
) -> Result<(), String> {
    guard_overwrite(path, force)?;
    std::fs::write(path, snapshot.to_json()).map_err(|e| file_err(path, e))?;
    write_out(
        out,
        format!(
            "metrics:        {path} ({} counters, {} histograms, {} timeline samples)\n",
            snapshot.counters.len(),
            snapshot.histograms.len(),
            snapshot
                .timelines
                .iter()
                .map(|(_, t)| t.len())
                .sum::<usize>(),
        ),
    )
}

// ---------------------------------------------------------------------
// stats
// ---------------------------------------------------------------------

fn cmd_stats(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let mut path = None;
    let mut format = "prometheus".to_owned();
    let mut s = Scanner::new(args);
    while let Some(arg) = s.next() {
        match arg {
            Arg::Opt("format", v) => format = s.value("format", v)?.to_owned(),
            Arg::Opt(o, _) => return Err(format!("stats: unknown option --{o}")),
            Arg::Positional(p) if path.is_none() => path = Some(p.to_owned()),
            Arg::Positional(p) => return Err(format!("stats: unexpected argument {p:?}")),
        }
    }
    let path = path.ok_or("stats: a metrics file (from simulate --metrics-out) is required")?;
    let text = std::fs::read_to_string(&path).map_err(|e| file_err(&path, e))?;
    let snapshot = Snapshot::from_json(&text).map_err(|e| file_err(&path, e))?;
    match format.as_str() {
        "prometheus" | "prom" => write_out(out, snapshot.to_prometheus()),
        "json" => write_out(out, snapshot.to_json()),
        other => Err(format!(
            "unknown format {other:?} (expected prometheus or json)"
        )),
    }
}

fn write_report(out: &mut dyn Write, r: &ReplayReport) -> Result<(), String> {
    write_out(
        out,
        format!(
            "program:        {}\n\
             allocator:      {}\n\
             allocations:    {}\n\
             bytes:          {}\n\
             arena allocs:   {} ({:.1}%)\n\
             arena bytes:    {} ({:.1}%)\n\
             max heap bytes: {}\n",
            r.program,
            r.allocator,
            r.total_allocs,
            r.total_bytes,
            r.arena_allocs,
            r.arena_alloc_pct(),
            r.arena_bytes,
            r.arena_byte_pct(),
            r.max_heap_bytes,
        ),
    )
}

fn write_online_stats(out: &mut dyn Write, l: &LearnerStats) -> Result<(), String> {
    write_out(
        out,
        format!(
            "\nonline learner:\n\
             epochs:         {}\n\
             sites:          {} ({} short-lived now)\n\
             promotions:     {}\n\
             demotions:      {}\n\
             mispredictions: {}\n\
             coverage:       {:.1}% allocs, {:.1}% bytes\n\
             error bytes:    {:.2}%\n",
            l.epochs,
            l.sites,
            l.short_sites,
            l.promotions,
            l.demotions,
            l.mispredictions,
            l.coverage_alloc_pct(),
            l.coverage_byte_pct(),
            l.error_byte_pct(),
        ),
    )
}

// ---------------------------------------------------------------------
// report
// ---------------------------------------------------------------------

/// Builds one row of the `report` table — the per-workload unit of
/// work `lifepred report` fans out over `--jobs` threads.
fn report_row(w: &dyn Workload, config: &SiteConfig) -> Vec<String> {
    let name = w.name();
    let registry = shared_registry();
    let n = w.inputs().len();
    // The training trace is freed once profiled, before the test input
    // is recorded: a row holds one recorded trace at a time.
    let train_profile = Profile::build(
        &record_workload(w, 0, registry.clone()),
        config,
        DEFAULT_THRESHOLD,
    );
    let test = record_workload(w, n - 1, registry);
    let a = lifepred_bench::analyze_profiles(
        Profile::build(&test, config, DEFAULT_THRESHOLD),
        train_profile,
    );
    // Offline columns answer "train on one input, test on another";
    // the online columns answer "start blind on the test input and
    // learn while it runs".
    let (_, learner) = lifepred_bench::analyze_online(&test, config, &EpochConfig::default());
    // The online columns go through the metric registry: the
    // learner's counters are exported as `lifepred_learner_*`
    // gauges and read back from the snapshot, so the table renders
    // exactly what `simulate --metrics-out` would persist.
    let registry = Registry::new();
    learner.export(&registry);
    let snap = registry.snapshot();
    let gauge = |name: &str| snap.gauge(name).unwrap_or(0);
    let ratio_pct = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            100.0 * num as f64 / den as f64
        }
    };
    let total_bytes = gauge("lifepred_learner_total_bytes");
    vec![
        name.to_owned(),
        a.self_report.total_sites.to_string(),
        a.true_report.sites_used.to_string(),
        format!("{:.1}", a.self_report.actual_short_bytes_pct),
        format!("{:.1}", a.self_report.predicted_short_bytes_pct),
        format!("{:.2}", a.self_report.error_bytes_pct),
        format!("{:.1}", a.true_report.predicted_short_bytes_pct),
        format!("{:.2}", a.true_report.error_bytes_pct),
        format!(
            "{:.1}",
            ratio_pct(gauge("lifepred_learner_predicted_bytes"), total_bytes)
        ),
        format!(
            "{:.2}",
            ratio_pct(gauge("lifepred_learner_error_bytes"), total_bytes)
        ),
        gauge("lifepred_learner_epochs").to_string(),
    ]
}

/// One workload's drag analysis: a liveness-timeline block plus two
/// per-arena table rows. Arenas are the *oracle* split — objects whose
/// actual lifetime stayed under `threshold` versus the rest — so the
/// table bounds what a perfect predictor could reclaim promptly.
fn drag_row(w: &dyn Workload, threshold: u64) -> (String, Vec<Vec<String>>) {
    let name = w.name();
    let trace = record_workload(w, 0, shared_registry());
    let end = trace.end_clock();
    let records = trace.records();
    let is_short = |r: &AllocationRecord| r.lifetime(end) < threshold;

    let mut block = format!("{name}: {} objects, end clock {end} bytes\n", records.len());
    block.push_str(&format!(
        "{:>6} {:>13} {:>13} {:>13} {:>13} {:>13} {:>13}\n",
        "t%", "short.alloc", "short.live", "short.ref", "long.alloc", "long.live", "long.ref"
    ));
    for k in 1u64..=10 {
        let t = u64::try_from(u128::from(end) * u128::from(k) / 10).unwrap_or(end);
        let mut cols = [0u64; 6];
        for r in records {
            if r.birth_clock > t {
                continue;
            }
            let size = u64::from(r.size);
            let live = r.death_clock.is_none_or(|d| d > t);
            // "Referenced": live bytes the program will still touch at
            // or after t — the complement of drag.
            let referenced = live && r.last_ref_clock.is_some_and(|l| l >= t);
            let base = if is_short(r) { 0 } else { 3 };
            cols[base] += size;
            if live {
                cols[base + 1] += size;
                if referenced {
                    cols[base + 2] += size;
                }
            }
        }
        block.push_str(&format!(
            "{:>6} {:>13} {:>13} {:>13} {:>13} {:>13} {:>13}\n",
            k * 10,
            cols[0],
            cols[1],
            cols[2],
            cols[3],
            cols[4],
            cols[5]
        ));
    }

    let arena = |short: bool, label: &str| -> Vec<String> {
        let (mut objects, mut bytes, mut untouched) = (0u64, 0u64, 0u64);
        let (mut drag_sum, mut life_sum) = (0u128, 0u128);
        for r in records.iter().filter(|r| is_short(r) == short) {
            objects += 1;
            bytes += u64::from(r.size);
            if r.last_ref_clock.is_none() {
                untouched += 1;
            }
            drag_sum += u128::from(r.drag(end));
            life_sum += u128::from(r.lifetime(end));
        }
        let pct = |num: u128, den: u128| {
            if den == 0 {
                0.0
            } else {
                100.0 * num as f64 / den as f64
            }
        };
        vec![
            name.to_owned(),
            label.to_owned(),
            objects.to_string(),
            bytes.to_string(),
            format!("{:.1}", pct(u128::from(untouched), u128::from(objects))),
            if objects == 0 {
                "0".to_owned()
            } else {
                (drag_sum / u128::from(objects)).to_string()
            },
            format!("{:.1}", pct(drag_sum, life_sum)),
        ]
    };
    (block, vec![arena(true, "short"), arena(false, "long")])
}

/// `report --drag`: how much of each workload's heap was *useful* over
/// time. The timelines sample allocated/live/referenced bytes per
/// arena at ten byte-clock points; the table aggregates per-object
/// drag (clock between an object's last touch and its free).
fn report_drag(
    workloads: Vec<Box<dyn Workload>>,
    threshold: u64,
    jobs: usize,
    out: &mut dyn Write,
) -> Result<(), String> {
    write_out(
        out,
        format!(
            "liveness timelines (oracle arenas at threshold {threshold} bytes; \
             clocks in allocated bytes)\n\n"
        ),
    )?;
    let outcomes = run_jobs(workloads, jobs, |_, w| drag_row(w.as_ref(), threshold));
    let mut rows = Vec::new();
    for (block, arena_rows) in outcomes {
        write_out(out, block)?;
        write_out(out, "\n")?;
        rows.extend(arena_rows);
    }
    write_out(
        out,
        format_table(
            "object drag (byte clock held past the last touch)",
            &[
                "program",
                "arena",
                "objects",
                "bytes",
                "untouched%",
                "mean drag",
                "drag%",
            ],
            &rows,
        ),
    )
}

fn cmd_report(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let mut names: Vec<String> = Vec::new();
    let mut policy = None;
    let mut jobs = 1usize;
    let mut drag = false;
    let mut threshold = None;
    let mut s = Scanner::new(args);
    while let Some(arg) = s.next() {
        match arg {
            Arg::Opt("workload", v) => names.push(s.value("workload", v)?.to_owned()),
            Arg::Opt("policy", v) => policy = Some(parse_policy(s.value("policy", v)?)?),
            Arg::Opt("jobs", v) => jobs = parse_num("jobs", s.value("jobs", v)?)?,
            Arg::Opt("drag", _) => drag = true,
            Arg::Opt("threshold", v) => {
                threshold = Some(parse_num("threshold", s.value("threshold", v)?)?);
            }
            Arg::Opt(o, _) => return Err(format!("report: unknown option --{o}")),
            Arg::Positional(p) => return Err(format!("report: unexpected argument {p:?}")),
        }
    }
    // Each flag belongs to one of the two reports; given to the other,
    // it would be silently ignored, so it is refused.
    if drag && policy.is_some() {
        return Err("report: --policy is not used by --drag".to_owned());
    }
    if !drag && threshold.is_some() {
        return Err("report: --threshold is only used by --drag".to_owned());
    }
    let workloads = resolve_workloads(&names)?;
    if drag {
        return report_drag(workloads, threshold.unwrap_or(DEFAULT_THRESHOLD), jobs, out);
    }
    let policy = policy.unwrap_or(SitePolicy::Complete);
    let config = SiteConfig {
        policy,
        ..SiteConfig::default()
    };
    let headers = [
        "program", "sites", "used", "actual%", "self%", "selferr%", "true%", "trueerr%", "online%",
        "onerr%", "epochs",
    ];
    // Row order follows the workload list regardless of which worker
    // finishes first, so the table is reproducible at any --jobs.
    let rows = run_jobs(workloads, jobs, |_, w| report_row(w.as_ref(), &config));
    write_out(
        out,
        format_table(
            &format!("prediction quality, offline vs online (policy {policy})"),
            &headers,
            &rows,
        ),
    )
}

// ---------------------------------------------------------------------
// native
// ---------------------------------------------------------------------

/// Looks up one workload, naming every known one when `name` is not.
fn workload_named(name: &str) -> Result<Box<dyn Workload>, String> {
    by_name(name).ok_or_else(|| {
        let known: Vec<&str> = all_workloads().iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?} (known: {})", known.join(", "))
    })
}

/// Resolves workload names into the suite's workloads, defaulting to
/// all of them when none are named. Commands resolve before doing any
/// work, so a typo in the last name fails the run up front.
fn resolve_workloads(names: &[String]) -> Result<Vec<Box<dyn Workload>>, String> {
    if names.is_empty() {
        return Ok(all_workloads());
    }
    names.iter().map(|n| workload_named(n)).collect()
}

/// Runs workloads with the binary's own global allocator switched to
/// [`lifepred_galloc::LifepredGlobal`]: the traced programs allocate
/// through the size-class allocator for real, and its counters tell
/// the story afterwards.
fn cmd_native(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let mut names: Vec<String> = Vec::new();
    let mut metrics_out: Option<String> = None;
    let mut force = false;
    let mut s = Scanner::new(args);
    while let Some(arg) = s.next() {
        match arg {
            Arg::Opt("metrics-out", v) => {
                metrics_out = Some(s.value("metrics-out", v)?.to_owned());
            }
            Arg::Opt("force", _) => force = true,
            Arg::Opt(o, _) => return Err(format!("native: unknown option --{o}")),
            Arg::Positional(p) => names.push(p.to_owned()),
        }
    }
    if let Some(path) = metrics_out.as_deref() {
        guard_overwrite(path, force)?;
    }
    let workloads = resolve_workloads(&names)?;
    lifepred_galloc::activate().map_err(|e| format!("native: {e}"))?;
    let mut rows = Vec::new();
    for w in &workloads {
        let before = lifepred_galloc::stats();
        let registry = shared_registry();
        let inputs = w.inputs().len();
        let train = record_workload(w.as_ref(), 0, registry.clone());
        let test = record_workload(w.as_ref(), inputs - 1, registry);
        let after = lifepred_galloc::stats();
        rows.push(vec![
            w.name().to_owned(),
            format!("{}", train.records().len() + test.records().len()),
            format!("{}", after.small_allocs - before.small_allocs),
            format!(
                "{}",
                (after.fallback_large + after.fallback_exhausted)
                    - (before.fallback_large + before.fallback_exhausted)
            ),
        ]);
    }
    write_out(
        out,
        format_table(
            "native runs (allocations served by LifepredGlobal)",
            &["workload", "traced", "small allocs", "fallbacks"],
            &rows,
        ),
    )?;
    let stats = lifepred_galloc::stats();
    if stats.small_allocs == 0 {
        write_out(
            out,
            "\nwarning: no traffic reached the class path — this build's \
             global allocator is not LifepredGlobal\n",
        )?;
    }
    write_out(
        out,
        format!(
            "\nallocator totals:\n\
             small allocs:     {} ({} bytes)\n\
             magazine hit rate:{:>7.2}%\n\
             remote frees:     {}\n\
             system fallbacks: {} large, {} align, {} exhausted\n",
            stats.small_allocs,
            stats.small_bytes,
            stats.hit_rate() * 100.0,
            stats.remote_frees,
            stats.fallback_large,
            stats.fallback_align,
            stats.fallback_exhausted,
        ),
    )?;
    if let Some(path) = metrics_out.as_deref() {
        let registry = Registry::new();
        stats.export(&registry);
        write_metrics(out, path, &registry.snapshot(), force)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// sweep
// ---------------------------------------------------------------------

/// Runs (or resumes, or re-renders) a design-space sweep. The three
/// verbs share one engine — the content-addressed cache is what makes
/// them differ in practice:
///
/// * `run` executes the grid, computing whatever the cache lacks;
/// * `resume` is the same execution after a kill — only dirty cells
///   recompute, and the summary says how much the cache answered;
/// * `render` re-renders a fully-cached grid (instant when warm).
fn cmd_sweep(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let verb = match args.first().map(String::as_str) {
        Some(v @ ("run" | "resume" | "render")) => v,
        Some("diff") => return sweep_diff(&args[1..], out),
        Some(other) => {
            return Err(format!(
                "sweep: unknown subcommand {other:?} (expected run, resume, render or diff)"
            ))
        }
        None => return Err("sweep: a subcommand is required (run, resume, render or diff)".into()),
    };
    let mut spec_path: Option<String> = None;
    let mut store_dir = "sweep-cache".to_owned();
    let mut jobs = 1usize;
    let mut format = "table".to_owned();
    let mut out_path: Option<String> = None;
    let mut s = Scanner::new(&args[1..]);
    while let Some(arg) = s.next() {
        match arg {
            Arg::Opt("spec", v) => spec_path = Some(s.value("spec", v)?.to_owned()),
            Arg::Opt("store", v) => store_dir = s.value("store", v)?.to_owned(),
            Arg::Opt("jobs", v) => jobs = parse_num("jobs", s.value("jobs", v)?)?,
            Arg::Opt("format", v) => format = s.value("format", v)?.to_owned(),
            Arg::Opt("o" | "out", v) => out_path = Some(s.value("out", v)?.to_owned()),
            Arg::Opt(o, _) => return Err(format!("sweep {verb}: unknown option --{o}")),
            Arg::Positional(p) => return Err(format!("sweep {verb}: unexpected argument {p:?}")),
        }
    }
    let spec_path = spec_path.ok_or("sweep: --spec is required")?;
    let text = std::fs::read_to_string(&spec_path).map_err(|e| file_err(&spec_path, e))?;
    let spec = GridSpec::from_json(&text).map_err(|e| file_err(&spec_path, e))?;
    let store = ResultStore::open(&store_dir).map_err(|e| file_err(&store_dir, e))?;
    // SIGTERM/ctrl-c cancels between cells: everything finished so far
    // is already in the cache, so `sweep resume` picks up the rest.
    let cancel = CancelFlag::new();
    install_shutdown_handlers(&cancel);
    // Progress goes to stderr so table/CSV/JSON on stdout stay clean.
    let progress = |done: usize, total: usize| {
        eprintln!("sweep: computed {done}/{total} cells");
    };
    let outcome = run_sweep(&spec, &store, jobs, &cancel, Some(&progress))
        .map_err(|e| format!("sweep: {e}"))?;

    let st = &outcome.stats;
    if st.cancelled {
        return Err(format!(
            "sweep: cancelled after {} computed cell(s); finished cells are cached — \
             rerun `lifepred sweep resume` to pick up the remaining {}",
            st.computed,
            st.unique - st.cache_hits - st.computed
        ));
    }
    if st.errors > 0 {
        for o in &outcome.outcomes {
            if let Some(err) = &o.error {
                write_out(
                    out,
                    format!("error: {}: {err}\n", o.cell.canonical_string()),
                )?;
            }
        }
        return Err(format!("sweep: {} cell(s) failed", st.errors));
    }

    let rendered = match format.as_str() {
        "table" => render_table(&outcome),
        "csv" => render_csv(&outcome),
        "json" => render_json(&outcome),
        other => {
            return Err(format!(
                "unknown format {other:?} (expected table, csv or json)"
            ))
        }
    };
    match out_path.as_deref() {
        Some(path) => {
            std::fs::write(path, &rendered).map_err(|e| file_err(path, e))?;
            write_out(out, format!("report:         {path}\n"))?;
        }
        None => write_out(out, &rendered)?,
    }
    write_out(
        out,
        format!(
            "{verb}: {} cells ({} unique), {} cached, {} computed\n",
            st.cells, st.unique, st.cache_hits, st.computed
        ),
    )
}

/// `lifepred sweep diff <before.json> <after.json>` — compares two
/// saved JSON reports (from `sweep run --format json --out ...`).
fn sweep_diff(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let mut paths: Vec<String> = Vec::new();
    let mut s = Scanner::new(args);
    while let Some(arg) = s.next() {
        match arg {
            Arg::Opt(o, _) => return Err(format!("sweep diff: unknown option --{o}")),
            Arg::Positional(p) => paths.push(p.to_owned()),
        }
    }
    let [before, after] = paths.as_slice() else {
        return Err("sweep diff: exactly two report files are required".to_owned());
    };
    let a = std::fs::read_to_string(before).map_err(|e| file_err(before, e))?;
    let b = std::fs::read_to_string(after).map_err(|e| file_err(after, e))?;
    write_out(out, diff_reports(&a, &b)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// USAGE names exactly the commands `run` dispatches, in the same
    /// order, and each named command is reached: a bogus flag is that
    /// command's error, never `unknown command`.
    #[test]
    fn usage_and_dispatch_agree() {
        let mut listed: Vec<&str> = Vec::new();
        for line in USAGE.lines() {
            if let Some(rest) = line.strip_prefix("    lifepred ") {
                let name = rest.split_whitespace().next().unwrap_or_default();
                if !listed.contains(&name) {
                    listed.push(name);
                }
            }
        }
        let dispatched: Vec<&str> = COMMANDS.iter().map(|(name, _)| *name).collect();
        assert_eq!(listed, dispatched);
        for name in listed {
            let args = [name.to_owned(), "--no-such-flag".to_owned()];
            let err = run(&args, &mut Vec::new()).expect_err(name);
            assert!(!err.starts_with("unknown command"), "{name}: {err}");
        }
    }
}
