//! Implementation of the `lifepred` command-line tool.
//!
//! The binary wires the workspace together end to end:
//!
//! * `record` runs an instrumented workload and persists the trace as
//!   an `.lpt` file ([`lifepred_tracefile`]);
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
//!   lifetime-predicting allocator, and the magazine/prediction
//!   counters are reported afterwards;
//! * `sweep` expands a declarative grid spec into the paper's
//!   design-space evaluation ([`lifepred_sweep`]), caching every cell
//!   so re-runs and resumes recompute only what changed;
//! * `serve` exposes the sweep engine and a Prometheus `/metrics`
//!   endpoint over a dependency-free HTTP/1.1 server;
//! * `audit` runs the allocator-safety static analysis
//!   ([`lifepred_audit`]) — the same engine as the standalone
//!   `lifepred-audit` binary — with the documented exit-code contract
//!   (0 clean, 1 deny findings, 2 usage/config error).
//!
//! Everything routes through [`run`], which writes to a caller-provided
//! sink so integration tests can capture output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use lifepred_adaptive::{EpochConfig, LearnerStats};
use lifepred_core::{
    train, Profile, ShortLivedSet, SiteConfig, SitePolicy, TrainConfig, DEFAULT_THRESHOLD,
};
use lifepred_heap::{ArenaConfig, ReplayReport};
use lifepred_obs::{Registry, Snapshot};
use lifepred_sweep::{
    diff_reports, install_shutdown_handlers, render_csv, render_json, render_table, run_sweep,
    simulate_file, CancelFlag, GridSpec, ResultStore, Server, ServerConfig, SimBackend,
    SweepOptions,
};
use lifepred_trace::{shared_registry, AllocationRecord};
use lifepred_tracefile::{save_trace, MappedTrace};
use lifepred_workloads::server::sim::SimConfig;
use lifepred_workloads::server::synth::generate_lpt;
use lifepred_workloads::{all_workloads, by_name, record as record_workload};
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
    lifepred trace [<workload>]... [-o <trace.json>] [--force]
    lifepred sweep run|resume|render --spec <grid.json> [--store <dir>]
                      [--jobs <n>] [--format <table|csv|json>] [--out <file>]
    lifepred sweep diff <before.json> <after.json>
    lifepred serve [--addr <host:port>] [--store <dir>] [--threads <n>]
                   [--jobs <n>]
    lifepred audit check [--root <dir>] [--config <audit.toml>]
                   [--format <human|json|sarif>] [--strict] [FILES...]
    lifepred audit rules

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
    --jobs <n>            simulate/report/sweep/serve: worker threads
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
    --store <dir>         sweep/serve: content-addressed result cache
                          directory (default sweep-cache)
    --out <file>          sweep: write the rendered report to a file
                          instead of stdout
    --addr <host:port>    serve: listen address (default 127.0.0.1:7878;
                          port 0 picks an ephemeral port)
    --threads <n>         serve: HTTP worker threads (default 4)
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
        None | Some("--help" | "-h" | "help") => {
            write_out(out, USAGE)?;
            Ok(())
        }
        Some("record") => cmd_record(&args[1..], out),
        Some("gen") => cmd_gen(&args[1..], out),
        Some("inspect") => cmd_inspect(&args[1..], out),
        Some("train") => cmd_train(&args[1..], out),
        Some("simulate") => cmd_simulate(&args[1..], out),
        Some("stats") => cmd_stats(&args[1..], out),
        Some("report") => cmd_report(&args[1..], out),
        Some("native") => cmd_native(&args[1..], out),
        Some("trace") => cmd_trace(&args[1..], out),
        Some("sweep") => cmd_sweep(&args[1..], out),
        Some("serve") => cmd_serve(&args[1..], out),
        Some("audit") => cmd_audit(&args[1..], out),
        Some(other) => Err(format!("unknown command {other:?} (try `lifepred --help`)")),
    }
}

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
/// everything else — including audit deny findings — exits 1.
#[must_use]
pub fn exit_code(err: &str) -> u8 {
    if err.starts_with("usage:") {
        2
    } else {
        1
    }
}

// ---------------------------------------------------------------------
// audit
// ---------------------------------------------------------------------

fn cmd_audit(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let mut err_buf: Vec<u8> = Vec::new();
    let code = lifepred_audit::app::run_app(args, out, &mut err_buf);
    let err_text = String::from_utf8_lossy(&err_buf).trim_end().to_string();
    match code {
        0 => {
            // Help text and warnings land on the driver's error
            // stream even on success; surface them.
            if !err_text.is_empty() {
                write_out(out, format_args!("{err_text}\n"))?;
            }
            Ok(())
        }
        1 => Err(
            "audit: deny diagnostics found (report above); fix the code or add \
             a reasoned [[allow]] to audit.toml"
                .into(),
        ),
        _ => Err(format!("usage: {err_text}")),
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
            Arg::Opt("input", v) => inputs.push(parse_num("input", s.value("input", v)?)?),
            Arg::Opt("o" | "output", v) => output = Some(s.value("output", v)?.to_owned()),
            Arg::Opt(o, _) => return Err(format!("record: unknown option --{o}")),
            Arg::Positional(p) => return Err(format!("record: unexpected argument {p:?}")),
        }
    }
    let name = workload.ok_or("record: --workload is required")?;
    let output = output.ok_or("record: -o is required")?;
    let w = by_name(&name).ok_or_else(|| {
        let known: Vec<&str> = all_workloads().iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?} (known: {})", known.join(", "))
    })?;
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
    let mut policy = SitePolicy::Complete;
    let mut rounding = 4u32;
    let mut threshold: u64 = DEFAULT_THRESHOLD;
    let mut epoch_bytes: Option<u64> = None;
    let mut requalify = 3u32;
    let mut metrics_out: Option<String> = None;
    let mut force = false;
    let mut jobs = 1usize;
    let mut s = Scanner::new(args);
    while let Some(arg) = s.next() {
        match arg {
            Arg::Opt("predictor", v) => predictor = Some(s.value("predictor", v)?.to_owned()),
            Arg::Opt("allocator", v) => allocator = s.value("allocator", v)?.to_owned(),
            Arg::Opt("policy", v) => policy = parse_policy(s.value("policy", v)?)?,
            Arg::Opt("rounding", v) => rounding = parse_num("rounding", s.value("rounding", v)?)?,
            Arg::Opt("threshold", v) => {
                threshold = parse_num("threshold", s.value("threshold", v)?)?;
            }
            Arg::Opt("epoch", v) => epoch_bytes = Some(parse_num("epoch", s.value("epoch", v)?)?),
            Arg::Opt("requalify", v) => {
                requalify = parse_num("requalify", s.value("requalify", v)?)?;
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
    // Resolved once, then shared read-only by every parallel job.
    let db;
    let backend = match (allocator.as_str(), predictor.as_deref()) {
        (other, Some("online")) if other != "arena" => {
            return Err("simulate: --predictor online requires the arena allocator".to_owned());
        }
        ("arena", Some("online")) => {
            let epoch = EpochConfig {
                threshold,
                epoch_bytes: epoch_bytes.unwrap_or(2 * threshold),
                requalify_epochs: requalify,
                ..EpochConfig::default()
            };
            epoch.validate().map_err(|e| format!("simulate: {e}"))?;
            SimBackend::ArenaOnline {
                sites: SiteConfig {
                    policy,
                    size_rounding: rounding,
                },
                epoch,
            }
        }
        ("arena", Some(pred_path)) => {
            let json = std::fs::read_to_string(pred_path).map_err(|e| file_err(pred_path, e))?;
            db = ShortLivedSet::from_json(&json).map_err(|e| file_err(pred_path, e))?;
            SimBackend::Arena(&db)
        }
        ("arena", None) => return Err("simulate: --predictor is required for arena".to_owned()),
        ("first-fit" | "firstfit" | "bsd", Some(_)) => {
            return Err("simulate: --predictor is only used by the arena allocator".to_owned());
        }
        ("first-fit" | "firstfit", None) => SimBackend::FirstFit,
        ("bsd", None) => SimBackend::Bsd,
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
    let outcomes = lifepred_bench::run_jobs(paths, jobs, |_, path| {
        simulate_file(&path, &backend, ArenaConfig::default(), want_metrics)
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
fn report_row(name: &str, config: &SiteConfig) -> Result<Vec<String>, String> {
    let w = by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let registry = shared_registry();
    let n = w.inputs().len();
    let train_trace = record_workload(w.as_ref(), 0, registry.clone());
    let test_trace = record_workload(w.as_ref(), n - 1, registry);
    let entry = lifepred_bench::SuiteEntry {
        name: name.to_owned(),
        description: String::new(),
        train: train_trace,
        test: test_trace,
    };
    let a = lifepred_bench::analyze(&entry, config);
    // Offline columns answer "train on one input, test on another";
    // the online columns answer "start blind on the test input and
    // learn while it runs".
    let online = lifepred_bench::analyze_online(&entry, config, &EpochConfig::default());
    // The online columns go through the metric registry: the
    // learner's counters are exported as `lifepred_learner_*`
    // gauges and read back from the snapshot, so the table renders
    // exactly what `simulate --metrics-out` would persist.
    let registry = Registry::new();
    online.learner.export(&registry);
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
    Ok(vec![
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
    ])
}

/// One workload's drag analysis: a liveness-timeline block plus two
/// per-arena table rows. Arenas are the *oracle* split — objects whose
/// actual lifetime stayed under `threshold` versus the rest — so the
/// table bounds what a perfect predictor could reclaim promptly.
fn drag_row(name: &str, threshold: u64) -> Result<(String, Vec<Vec<String>>), String> {
    let w = by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let trace = record_workload(w.as_ref(), 0, shared_registry());
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
    Ok((block, vec![arena(true, "short"), arena(false, "long")]))
}

/// `report --drag`: how much of each workload's heap was *useful* over
/// time. The timelines sample allocated/live/referenced bytes per
/// arena at ten byte-clock points; the table aggregates per-object
/// drag (clock between an object's last touch and its free).
fn report_drag(
    names: Vec<String>,
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
    let outcomes = lifepred_bench::run_jobs(names, jobs, |_, name| drag_row(&name, threshold));
    let mut rows = Vec::new();
    for outcome in outcomes {
        let (block, arena_rows) = outcome?;
        write_out(out, block)?;
        write_out(out, "\n")?;
        rows.extend(arena_rows);
    }
    write_table(
        out,
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
    )
}

fn cmd_report(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let mut names: Vec<String> = Vec::new();
    let mut policy = SitePolicy::Complete;
    let mut jobs = 1usize;
    let mut drag = false;
    let mut threshold: u64 = 32 * 1024;
    let mut s = Scanner::new(args);
    while let Some(arg) = s.next() {
        match arg {
            Arg::Opt("workload", v) => names.push(s.value("workload", v)?.to_owned()),
            Arg::Opt("policy", v) => policy = parse_policy(s.value("policy", v)?)?,
            Arg::Opt("jobs", v) => jobs = parse_num("jobs", s.value("jobs", v)?)?,
            Arg::Opt("drag", _) => drag = true,
            Arg::Opt("threshold", v) => {
                threshold = parse_num("threshold", s.value("threshold", v)?)?;
            }
            Arg::Opt(o, _) => return Err(format!("report: unknown option --{o}")),
            Arg::Positional(p) => return Err(format!("report: unexpected argument {p:?}")),
        }
    }
    if names.is_empty() {
        names = all_workloads()
            .iter()
            .map(|w| w.name().to_owned())
            .collect();
    }
    if drag {
        return report_drag(names, threshold, jobs, out);
    }
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
    let outcomes = lifepred_bench::run_jobs(names, jobs, |_, name| report_row(&name, &config));
    let mut rows = Vec::with_capacity(outcomes.len());
    for outcome in outcomes {
        rows.push(outcome?);
    }
    write_table(
        out,
        &format!("prediction quality, offline vs online (policy {policy})"),
        &headers,
        &rows,
    )
}

// ---------------------------------------------------------------------
// native
// ---------------------------------------------------------------------

/// Resolves positional workload names into the suite's workloads,
/// defaulting to all five when none are named.
fn resolve_workloads(
    names: &[String],
) -> Result<Vec<Box<dyn lifepred_workloads::Workload>>, String> {
    if names.is_empty() {
        return Ok(all_workloads());
    }
    names
        .iter()
        .map(|n| {
            by_name(n).ok_or_else(|| {
                let known: Vec<&str> = all_workloads().iter().map(|w| w.name()).collect();
                format!("unknown workload {n:?} (known: {})", known.join(", "))
            })
        })
        .collect()
}

/// Runs workloads with the binary's own global allocator switched to
/// [`lifepred_galloc::LifepredGlobal`]: the traced programs allocate
/// through the lifetime-predicting allocator for real, and the
/// magazine/prediction counters tell the story afterwards.
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
            format!("{}", after.short_allocs - before.short_allocs),
            format!(
                "{}",
                (after.fallback_large + after.fallback_exhausted)
                    - (before.fallback_large + before.fallback_exhausted)
            ),
        ]);
    }
    write_table(
        out,
        "native runs (allocations served by LifepredGlobal)",
        &[
            "workload",
            "traced",
            "small allocs",
            "short-lived",
            "fallbacks",
        ],
        &rows,
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
             short-lived:      {} allocs, {} segment resets\n\
             remote frees:     {} ({} drained)\n\
             system fallbacks: {} large, {} align, {} exhausted\n\
             sampling:         {} sampled, {} frees seen, {} mispredicted\n\
             epoch ticks:      {}\n",
            stats.small_allocs,
            stats.small_bytes,
            stats.hit_rate() * 100.0,
            stats.short_allocs,
            stats.seg_resets,
            stats.remote_frees,
            stats.remote_drained,
            stats.fallback_large,
            stats.fallback_align,
            stats.fallback_exhausted,
            stats.sampled_allocs,
            stats.sampled_frees,
            stats.mispredict_frees,
            stats.epoch_ticks,
        ),
    )?;
    if let Some(l) = lifepred_galloc::learner_stats() {
        write_online_stats(out, &l)?;
    }
    if let Some(path) = metrics_out.as_deref() {
        let registry = Registry::new();
        lifepred_galloc::export_metrics(&registry);
        write_metrics(out, path, &registry.snapshot(), force)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// trace
// ---------------------------------------------------------------------

/// Runs the workload suite natively with the flight recorder on, then
/// exports the captured events as Chrome-trace JSON (`-o`, loadable in
/// Perfetto or `chrome://tracing`) and prints the span summary.
fn cmd_trace(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let mut names: Vec<String> = Vec::new();
    let mut out_path: Option<String> = None;
    let mut force = false;
    let mut s = Scanner::new(args);
    while let Some(arg) = s.next() {
        match arg {
            Arg::Opt("o" | "output", v) => out_path = Some(s.value("output", v)?.to_owned()),
            Arg::Opt("force", _) => force = true,
            Arg::Opt(o, _) => return Err(format!("trace: unknown option --{o}")),
            Arg::Positional(p) => names.push(p.to_owned()),
        }
    }
    if !lifepred_flight::COMPILED {
        return Err(
            "trace: this build cannot capture flight events (the `flight` \
             feature is off); rebuild with `cargo build -p lifepred-cli \
             --features flight` and re-run"
                .into(),
        );
    }
    if let Some(path) = out_path.as_deref() {
        guard_overwrite(path, force)?;
    }
    let workloads = resolve_workloads(&names)?;
    lifepred_galloc::activate().map_err(|e| format!("trace: {e}"))?;
    lifepred_flight::set_recording(true);
    for (i, w) in workloads.iter().enumerate() {
        let _span = lifepred_flight::span_arg(lifepred_flight::catalog::CLI_WORKLOAD, i as u64);
        let registry = shared_registry();
        let inputs = w.inputs().len();
        let train = record_workload(w.as_ref(), 0, registry.clone());
        let test = record_workload(w.as_ref(), inputs - 1, registry);
        // The traces themselves are byproducts here; the run exists to
        // drive the instrumented allocator and replay layers.
        drop((train, test));
    }
    lifepred_flight::set_recording(false);
    let events = lifepred_flight::drain();
    if let Some(path) = out_path.as_deref() {
        std::fs::write(path, lifepred_flight::chrome::chrome_trace_json(&events))
            .map_err(|e| file_err(path, e))?;
        write_out(out, format!("wrote {} events to {path}\n\n", events.len()))?;
    }
    write_out(out, lifepred_flight::summary::render_summary(&events))?;
    let dropped = lifepred_flight::dropped_events();
    if dropped > 0 {
        write_out(
            out,
            format!(
                "\nwarning: {dropped} events dropped (per-thread ring full); \
                 set {}=<events> to enlarge (default {})\n",
                lifepred_flight::RING_ENV,
                lifepred_flight::DEFAULT_RING_EVENTS,
            ),
        )?;
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
    let opts = SweepOptions {
        threads: jobs.max(1),
        want_metrics: false,
    };
    // SIGTERM/ctrl-c cancels between cells: everything finished so far
    // is already in the cache, so `sweep resume` picks up the rest.
    let cancel = CancelFlag::new();
    let _ = install_shutdown_handlers(&cancel);
    // Progress goes to stderr so table/CSV/JSON on stdout stay clean.
    let progress = |done: usize, total: usize| {
        eprintln!("sweep: computed {done}/{total} cells");
    };
    let outcome = run_sweep(&spec, &store, &opts, &cancel, Some(&progress))
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

// ---------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------

/// Binds the blocking HTTP endpoint and runs it until SIGTERM/ctrl-c.
fn cmd_serve(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let mut addr = "127.0.0.1:7878".to_owned();
    let mut store = "sweep-cache".to_owned();
    let mut threads = 4usize;
    let mut jobs = 1usize;
    let mut s = Scanner::new(args);
    while let Some(arg) = s.next() {
        match arg {
            Arg::Opt("addr", v) => addr = s.value("addr", v)?.to_owned(),
            Arg::Opt("store", v) => store = s.value("store", v)?.to_owned(),
            Arg::Opt("threads", v) => threads = parse_num("threads", s.value("threads", v)?)?,
            Arg::Opt("jobs", v) => jobs = parse_num("jobs", s.value("jobs", v)?)?,
            Arg::Opt(o, _) => return Err(format!("serve: unknown option --{o}")),
            Arg::Positional(p) => return Err(format!("serve: unexpected argument {p:?}")),
        }
    }
    let server = Server::bind(&ServerConfig {
        addr,
        store: store.clone().into(),
        threads: threads.max(1),
        jobs: jobs.max(1),
    })
    .map_err(|e| format!("serve: {e}"))?;
    let local = server.local_addr().map_err(|e| format!("serve: {e}"))?;
    let handled = install_shutdown_handlers(&server.shutdown_handle());
    write_out(
        out,
        format!(
            "serving on http://{local}/ (store {store}, {} http threads, {} sweep jobs)\n\
             routes: GET /healthz, GET /metrics, GET /trace, GET /sweeps, GET /sweeps/<id>, POST /sweeps\n",
            threads.max(1),
            jobs.max(1),
        ),
    )?;
    if !handled {
        write_out(out, "note: no signal handlers on this platform\n")?;
    }
    out.flush().map_err(|e| format!("write failed: {e}"))?;
    server.run().map_err(|e| format!("serve: {e}"))?;
    write_out(out, "shutdown: drained and stopped\n")
}

fn write_table(
    out: &mut dyn Write,
    title: &str,
    headers: &[&str],
    rows: &[Vec<String>],
) -> Result<(), String> {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut text = format!("== {title} ==\n");
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{h:>w$}", w = widths[i]))
        .collect();
    let header_line = header_line.join("  ");
    text.push_str(&header_line);
    text.push('\n');
    text.push_str(&"-".repeat(header_line.len()));
    text.push('\n');
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths[i]))
            .collect();
        text.push_str(&line.join("  "));
        text.push('\n');
    }
    write_out(out, &text)
}
