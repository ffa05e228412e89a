//! Implementation of the `lifepred` command-line tool.
//!
//! The binary wires the workspace together end to end: it records
//! workloads as `.lpt` traces ([`lifepred_tracefile`]), trains
//! predictors on them and simulates allocators with them, reruns the
//! paper's analyses, and runs workloads on [`lifepred_galloc`]'s
//! allocator for real.
//!
//! Each command is one row of the argument table, `COMMANDS`: its
//! usage, what it does, its options and the function that runs it.
//! Everything routes through [`run`], which parses a command line by
//! its row, renders `--help` from the rows, and writes to a
//! caller-provided sink so integration tests can capture output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use lifepred_adaptive::{EpochConfig, LearnerStats};
use lifepred_bench::{format_table, run_jobs, simulate_file};
use lifepred_core::{
    train, Profile, ShortLivedSet, SiteConfig, SitePolicy, TrainConfig, DEFAULT_THRESHOLD,
};
use lifepred_heap::{ArenaConfig, ReplayPlan, ReplayReport};
use lifepred_obs::{Registry, Snapshot};
use lifepred_trace::{shared_registry, AllocationRecord, TraceSource};
use lifepred_tracefile::{save_trace, MappedTrace};
use lifepred_workloads::server::sim::SimConfig;
use lifepred_workloads::server::synth::generate_lpt;
use lifepred_workloads::{all_workloads, by_name, record as record_workload, Workload};
use std::fmt::Display;
use std::io::Write;

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
    let name = match args.first().map(String::as_str) {
        None | Some("--help" | "-h" | "help") => return write_out(out, usage()),
        Some(name) => name,
    };
    match COMMANDS.iter().find(|c| c.name() == name) {
        Some(row) => (row.run)(&parse(row, &args[1..])?, out),
        None => Err(format!("unknown command {name:?} (try `lifepred --help`)")),
    }
}

// ---------------------------------------------------------------------
// The argument table
// ---------------------------------------------------------------------

/// One row of the argument table: a command, what it accepts and the
/// function that runs it. [`parse`] reads a command line by its row,
/// and `--help` is rendered from the rows.
struct Command {
    /// The usage line after `lifepred`: the command, then its
    /// positionals: each `<file>` is required, and a last `<file>...`
    /// or `[<file>]...` takes any number more.
    usage: &'static str,
    /// What the command does, in a line of help.
    about: &'static str,
    opts: &'static [Opt],
    run: fn(&Args<'_>, &mut dyn Write) -> Result<(), String>,
}

impl Command {
    fn name(&self) -> &'static str {
        self.usage.split(' ').next().unwrap_or_default()
    }
}

/// How often an option may be given. An option whose spec names no
/// value is a flag, and a flag given a value is refused.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Optional,
    Required,
    /// Any number of times, but no value twice, as text or as a number
    /// (`1`, `01`).
    Distinct,
}
use Kind::{Distinct, Optional, Required};

/// When an option is used: with (or without) another option, or with
/// it given one value (`--drag`, `--predictor online`). An option
/// given where the run would ignore it is refused.
#[derive(Clone, Copy)]
enum Scope {
    Always,
    Only(&'static str),
    Not(&'static str),
}

#[derive(Clone, Copy)]
struct Opt {
    /// As help spells it: `--force`, `--seed <n>`, `-o, --output <file>`.
    spec: &'static str,
    kind: Kind,
    scope: Scope,
    help: &'static str,
}

const fn opt(spec: &'static str, kind: Kind, help: &'static str) -> Opt {
    Opt {
        spec,
        kind,
        scope: Scope::Always,
        help,
    }
}

impl Opt {
    /// The spec's alias (`-o`), long name (`--output`) and value
    /// (`<file>`; empty for a flag).
    fn parts(&self) -> (Option<&'static str>, &'static str, &'static str) {
        let (alias, rest) = match self.spec.split_once(", ") {
            Some((alias, rest)) => (Some(alias), rest),
            None => (None, self.spec),
        };
        let (long, value) = rest.split_once(' ').unwrap_or((rest, ""));
        (alias, long, value)
    }

    /// The option as a usage line shows it: `-o <file>`, `[--force]`,
    /// `[--input <n>]...`.
    fn usage(&self) -> String {
        let (alias, long, value) = self.parts();
        let form = format!("{} {value}", alias.unwrap_or(long));
        let form = form.trim_end();
        match self.kind {
            Required => form.to_owned(),
            Optional => format!("[{form}]"),
            Distinct => format!("[{form}]..."),
        }
    }
}

const ONLINE: Scope = Scope::Only("--predictor online");
const DRAG: &str = "--drag";
#[rustfmt::skip]
const POLICY: Opt = opt("--policy <p>", Optional, "site policy: complete (default), len-N, cce or size-only");
#[rustfmt::skip]
const ROUNDING: Opt = opt("--rounding <n>", Optional, "size rounding in bytes (default 4)");
#[rustfmt::skip]
const THRESHOLD: Opt = opt("--threshold <bytes>", Optional, "short-lived threshold (default 32768)");
const JOBS: Opt = opt("--jobs <n>", Optional, "worker threads (default 1)");
#[rustfmt::skip]
const FORCE: Opt = opt("--force", Optional, "let --metrics-out overwrite an existing file");

/// Every command [`run`] dispatches, in the order `--help` lists them.
/// Laid out by hand, one option a line.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command { usage: "record", run: cmd_record, opts: &[
        opt("--workload <name>", Required, "cfrac, espresso, gawk, ghost, perl or server"),
        opt("--input <n>", Distinct,
            "input index (default 0); with several, a {} in -o stands for each index"),
        opt("-o, --output <file.lpt>", Required, "output path"),
    ], about: "run a paper workload under the tracer and save each input's trace" },
    Command { usage: "gen", run: cmd_gen, opts: &[
        opt("--events <n[k|m|g]>", Required, "events to target (k/m/g = 10^3/10^6/10^9); \
             the synthetic server run lands within a few percent of it"),
        opt("-o, --output <file.lpt>", Required, "output path"),
        opt("--seed <n>", Optional, "simulation seed (default 1)"),
        opt("--force", Optional, "overwrite an existing output file"),
    ], about: "stream a synthetic server trace of any size straight to a file" },
    Command { usage: "inspect <file.lpt>", run: cmd_inspect, opts: &[
        opt("--functions", Optional, "list the function registry"),
        opt("--chains", Optional, "list the interned call chains"),
        opt("--verify", Optional,
            "check all five section CRCs at open, then walk records and events in lockstep: \
             every event must agree with its record, and the totals with the header"),
        opt("--sections", Optional, "list section framing and sizes (decodes no events)"),
        opt("--head <n>", Optional, "print the first n events (decodes only those)"),
    ], about: "print a trace's header in constant memory; each flag adds a view" },
    Command { usage: "train <file.lpt>...", run: cmd_train, opts: &[
        opt("-o, --output <pred.json>", Required, "output path"),
        POLICY,
        ROUNDING,
        THRESHOLD,
    ], about: "profile traces and save the short-lived site database as JSON" },
    Command { usage: "simulate <file.lpt>...", run: cmd_simulate, opts: &[
        opt("--predictor <pred.json|online>", Optional, "trained predictor (from `lifepred \
             train`), or `online` to train in place while simulating; the arena allocator \
             needs one"),
        opt("--allocator <a>", Optional, "arena (default), first-fit or bsd"),
        Opt { scope: ONLINE, ..POLICY },
        Opt { scope: ONLINE, ..ROUNDING },
        Opt { scope: ONLINE, ..THRESHOLD },
        Opt { scope: ONLINE, ..opt("--epoch <bytes>", Optional, "epoch length (default 2x threshold)") },
        Opt { scope: ONLINE, ..opt("--requalify <k>", Optional,
            "clean epochs a demoted site must show before re-qualifying (default 3)") },
        opt("--metrics-out <m.json>", Optional, "dump the metric registry (counters, \
             histograms, epoch timeline) as JSON; several traces' registries merge into one"),
        FORCE,
        JOBS,
    ], about: "stream traces through an allocator model that consults a predictor" },
    Command { usage: "report", run: cmd_report, opts: &[
        opt("--workload <name>", Distinct,
            "cfrac, espresso, gawk, ghost, perl or server (default: all)"),
        Opt { scope: Scope::Not(DRAG), ..POLICY },
        opt("--drag", Optional, "per-arena liveness timelines and object drag (bytes held \
             between last touch and free) instead of prediction quality"),
        Opt { scope: Scope::Only(DRAG), ..THRESHOLD },
        JOBS,
    ], about: "rerun the paper's prediction-quality analysis, or the drag analysis" },
    Command { usage: "native [<workload>]...", run: cmd_native, opts: &[
        opt("--metrics-out <m.json>", Optional, "dump the allocator's counters as JSON"),
        FORCE,
    ], about: "run workloads on the binary's own allocator, LifepredGlobal, and \
             print its counters" },
];

/// A command line parsed by its row: every option known, given as its
/// [`Kind`] allows, and used by this run.
struct Args<'a> {
    row: &'static Command,
    /// The values given to each of `row.opts`, in command-line order;
    /// a flag's value is empty.
    values: Vec<Vec<&'a str>>,
    positionals: Vec<&'a str>,
}

impl<'a> Args<'a> {
    /// Every value given to `long` (`--seed`); panics if the row lacks it.
    fn values(&self, long: &str) -> impl Iterator<Item = &'a str> + '_ {
        let index = self.row.opts.iter().position(|o| o.parts().1 == long);
        let index = index.unwrap_or_else(|| panic!("{}: no {long} in its row", self.row.usage));
        self.values[index].iter().copied()
    }

    fn value(&self, long: &str) -> Option<&'a str> {
        self.values(long).next()
    }

    fn num<T: std::str::FromStr<Err: Display>>(&self, long: &str) -> Result<Option<T>, String> {
        self.value(long).map(|v| parse_num(long, v)).transpose()
    }

    fn policy(&self) -> Result<Option<SitePolicy>, String> {
        self.value("--policy").map(parse_policy).transpose()
    }

    /// Whether a [`Scope`] condition holds for this run.
    fn holds(&self, when: &str) -> bool {
        let (long, want) = when.split_once(' ').unwrap_or((when, ""));
        self.values(long).any(|v| want.is_empty() || v == want)
    }
}

/// Parses `argv`, the arguments after the command's name, by `row`.
/// Refused: an unknown option, a flag given a value, an option given
/// more often than its [`Kind`] allows, a missing or surplus
/// positional, a missing required option, and an option given out of
/// its [`Scope`].
fn parse<'a>(row: &'static Command, argv: &'a [String]) -> Result<Args<'a>, String> {
    let label = row.name();
    let positionals = row.usage.find(['<', '[']).map_or("", |i| &row.usage[i..]);
    let required = positionals.matches('<').count() - positionals.matches("[<").count();
    let mut args = Args {
        row,
        values: vec![Vec::new(); row.opts.len()],
        positionals: Vec::new(),
    };
    let mut rest = argv.iter();
    while let Some(raw) = rest.next() {
        if raw.len() < 2 || !raw.starts_with('-') {
            if args.positionals.len() == required && !positionals.ends_with("...") {
                return Err(format!("{label}: unexpected argument {raw:?}"));
            }
            args.positionals.push(raw);
            continue;
        }
        let (key, attached) = match raw.split_once('=') {
            Some((key, value)) => (key, Some(value)),
            None => (raw.as_str(), None),
        };
        let found = row.opts.iter().zip(&mut args.values).find(|(o, _)| {
            let (alias, long, _) = o.parts();
            long == key || alias == Some(key)
        });
        let Some((opt, seen)) = found else {
            return Err(format!("{label}: unknown option {key}"));
        };
        let (_, long, placeholder) = opt.parts();
        let value = match (placeholder, attached) {
            ("", None) => "",
            ("", Some(_)) => return Err(format!("{label}: {long} takes no value")),
            (_, Some(value)) => value,
            (_, None) => rest
                .next()
                .ok_or_else(|| format!("{label}: {long} needs a value"))?,
        };
        let repeated = match opt.kind {
            Optional | Required => !seen.is_empty(),
            Distinct => seen
                .iter()
                .any(|s| *s == value || s.parse::<u64>().is_ok_and(|n| value.parse() == Ok(n))),
        };
        if repeated {
            let given = format!("{long} {value}");
            return Err(format!("{label}: {} is repeated", given.trim_end()));
        }
        seen.push(value);
    }
    if args.positionals.len() < required {
        return Err(format!("{label}: expected {positionals}"));
    }
    for (opt, seen) in row.opts.iter().zip(&args.values) {
        let (_, long, _) = opt.parts();
        let given = !seen.is_empty();
        let why = match opt.scope {
            _ if !given && opt.kind == Required => format!("{} is required", opt.usage()),
            Scope::Only(w) if given && !args.holds(w) => format!("{long} is only used by {w}"),
            Scope::Not(w) if given && args.holds(w) => format!("{long} is not used by {w}"),
            _ => continue,
        };
        return Err(format!("{label}: {why}"));
    }
    Ok(args)
}

/// `--help`: each row's usage line, then one entry per option.
fn usage() -> String {
    let mut text = "lifepred — trace, train and simulate lifetime-predicting allocation\n\n\
                    USAGE:\n"
        .to_owned();
    for row in COMMANDS {
        let words: Vec<String> = row.opts.iter().map(Opt::usage).collect();
        let lead = format!("\n    lifepred {}", row.usage);
        let indent = 14 + row.name().len();
        text.push_str(&wrap(lead, words.iter().map(String::as_str), indent));
        text.push_str(&wrap(" ".repeat(6), row.about.split_whitespace(), 6));
        for opt in row.opts {
            let help = match opt.scope {
                Scope::Always => opt.help.to_owned(),
                Scope::Only(when) => format!("{}; only with {when}", opt.help),
                Scope::Not(when) => format!("{}; not with {when}", opt.help),
            };
            let lead = match opt.spec.len() {
                0..=24 => format!("{:8}{:<26}", "", opt.spec),
                _ => format!("{:8}{}\n{:34}", "", opt.spec, ""),
            };
            text.push_str(&wrap(lead, help.split_whitespace(), 34));
        }
    }
    text
}

/// Appends `words` to `text` one space apart, starting a new line,
/// indented by `indent`, before a word that would pass column 80.
fn wrap<'w>(mut text: String, words: impl IntoIterator<Item = &'w str>, indent: usize) -> String {
    for word in words {
        let col = text.len() - text.rfind('\n').map_or(0, |i| i + 1);
        if col + 1 + word.len() > 80 && !text.ends_with(' ') {
            text.push('\n');
            text.push_str(&" ".repeat(indent));
        } else if !text.ends_with(' ') {
            text.push(' ');
        }
        text.push_str(word);
    }
    text + "\n"
}

/// Parses the value given to the option `long` (`--seed`).
fn parse_num<T: std::str::FromStr<Err: Display>>(long: &str, text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|e| format!("bad value for {long} ({e})"))
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

/// Maps a [`run`] error message to a process exit code: 2 for a
/// message starting with `usage:`, 1 for any other. No [`run`] message
/// starts with `usage:`, so every `lifepred` error exits 1; the
/// benchmark's child process (`benchmark/src/child.rs`) links this
/// function and words its own argument errors that way.
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

fn cmd_record(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let name = args.value("--workload").unwrap_or_default();
    let output = args.value("--output").unwrap_or_default();
    let mut inputs = args
        .values("--input")
        .map(|v| parse_num::<usize>("--input", v))
        .collect::<Result<Vec<_>, _>>()?;
    let w = workload_named(name)?;
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
    let n: u64 = parse_num("--events", digits)?;
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

fn cmd_gen(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let events = parse_events(args.value("--events").unwrap_or_default())?;
    let seed = args.num("--seed")?.unwrap_or(1);
    let output = args.value("--output").unwrap_or_default();
    guard_overwrite(output, args.value("--force").is_some())?;
    let config = SimConfig::for_events(events, seed);
    let file = std::fs::File::create(output).map_err(|e| file_err(output, e))?;
    let sink = std::io::BufWriter::with_capacity(1 << 20, file);
    let started = std::time::Instant::now();
    let (summary, sink) = match generate_lpt(&config, sink) {
        Ok(done) => done,
        Err(e) => {
            // Don't leave a half-written trace behind.
            std::fs::remove_file(output).ok();
            return Err(file_err(output, e));
        }
    };
    let elapsed = started.elapsed();
    drop(sink);
    let file_bytes = std::fs::metadata(output).map(|m| m.len()).unwrap_or(0);
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

fn cmd_inspect(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let path = args.positionals[0];
    let verify = args.value("--verify").is_some();
    // Every view but `--verify` reads header sections and framing (and
    // at most a prefix of the events): skip the bulk CRC of the two
    // large sections unless the user asked for it.
    let mapped = if verify {
        MappedTrace::open(path)
    } else {
        MappedTrace::open_unverified(path)
    }
    .map_err(|e| file_err(path, e))?;
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
    if args.value("--functions").is_some() {
        text.push_str("\nfunctions:\n");
        for name in mapped.registry().names() {
            text.push_str("  ");
            text.push_str(name);
            text.push('\n');
        }
    }
    if args.value("--chains").is_some() {
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
    if args.value("--sections").is_some() {
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
    if let Some(head) = args.num::<u64>("--head")? {
        use lifepred_trace::{ChunkEvent, ChunkSource, EventChunk};
        let mut text = format!("\nevents (first {head} of {}):\n", mapped.end_seq());
        let mut source = mapped.events();
        let mut chunk = EventChunk::new();
        let mut seq = 0u64;
        'outer: while seq < head
            && source
                .next_chunk(&mut chunk)
                .map_err(|e| file_err(path, e))?
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
        mapped.verify().map_err(|e| file_err(path, e))?;
        write_out(
            out,
            format!(
                "\nverified: {} records, {} events, all checksums good, \
                 events agree with records and header\n",
                mapped.record_count(),
                mapped.end_seq()
            ),
        )?;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// train
// ---------------------------------------------------------------------

fn cmd_train(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let output = args.value("--output").unwrap_or_default();
    let policy = args.policy()?.unwrap_or(SitePolicy::Complete);
    let threshold = args.num("--threshold")?.unwrap_or(DEFAULT_THRESHOLD);
    let config = SiteConfig {
        policy,
        size_rounding: args.num("--rounding")?.unwrap_or(4),
    };
    // Each file is profiled straight off its verified mapping; nothing
    // is written until every file has streamed through.
    let mut profile = Profile::new(&config, threshold);
    for &path in &args.positionals {
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
    std::fs::write(output, db.to_json()).map_err(|e| file_err(output, e))?;
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

fn cmd_simulate(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let metrics_out = args.value("--metrics-out");
    let force = args.value("--force").is_some();
    // Resolved once, then shared read-only by every parallel job.
    let db;
    let arena = ArenaConfig::default();
    let allocator = args.value("--allocator").unwrap_or("arena");
    let plan = match (allocator, args.value("--predictor")) {
        (other, Some("online")) if other != "arena" => {
            return Err("simulate: --predictor online requires the arena allocator".to_owned());
        }
        ("arena", Some("online")) => {
            let threshold = args.num("--threshold")?.unwrap_or(DEFAULT_THRESHOLD);
            let epoch = EpochConfig {
                threshold,
                epoch_bytes: args.num("--epoch")?.unwrap_or(2 * threshold),
                requalify_epochs: args.num("--requalify")?.unwrap_or(3),
            };
            epoch.validate().map_err(|e| format!("simulate: {e}"))?;
            ReplayPlan::ArenaOnline {
                sites: SiteConfig {
                    policy: args.policy()?.unwrap_or(SitePolicy::Complete),
                    size_rounding: args.num("--rounding")?.unwrap_or(4),
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
    if let Some(path) = metrics_out {
        guard_overwrite(path, force)?;
    }
    // Fan the traces over the worker pool; results come back in input
    // order, so the printed reports match a sequential run exactly.
    let want_metrics = metrics_out.is_some();
    let jobs = args.num("--jobs")?.unwrap_or(1);
    let outcomes = run_jobs(args.positionals.clone(), jobs, |_, path| {
        simulate_file(path, &plan, want_metrics)
    });
    let mut results = Vec::with_capacity(outcomes.len());
    for outcome in outcomes {
        results.push(outcome?);
    }
    if let Some(path) = metrics_out {
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
    vec![
        name.to_owned(),
        a.self_report.total_sites.to_string(),
        a.true_report.sites_used.to_string(),
        format!("{:.1}", a.self_report.actual_short_bytes_pct),
        format!("{:.1}", a.self_report.predicted_short_bytes_pct),
        format!("{:.2}", a.self_report.error_bytes_pct),
        format!("{:.1}", a.true_report.predicted_short_bytes_pct),
        format!("{:.2}", a.true_report.error_bytes_pct),
        format!("{:.1}", learner.coverage_byte_pct()),
        format!("{:.2}", learner.error_byte_pct()),
        learner.epochs.to_string(),
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

fn cmd_report(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let workloads = resolve_workloads(&args.values("--workload").collect::<Vec<_>>())?;
    let jobs = args.num("--jobs")?.unwrap_or(1);
    if args.value("--drag").is_some() {
        let threshold = args.num("--threshold")?.unwrap_or(DEFAULT_THRESHOLD);
        return report_drag(workloads, threshold, jobs, out);
    }
    let policy = args.policy()?.unwrap_or(SitePolicy::Complete);
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
/// work, so a typo or a repeat in the last name fails the run up front.
fn resolve_workloads(names: &[&str]) -> Result<Vec<Box<dyn Workload>>, String> {
    if names.is_empty() {
        return Ok(all_workloads());
    }
    for (i, name) in names.iter().enumerate() {
        if names[..i].contains(name) {
            return Err(format!("workload {name:?} is repeated"));
        }
    }
    names.iter().map(|n| workload_named(n)).collect()
}

/// Runs workloads with the binary's own global allocator switched to
/// [`lifepred_galloc::LifepredGlobal`]: the traced programs allocate
/// through the size-class allocator for real, and its counters tell
/// the story afterwards.
fn cmd_native(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let metrics_out = args.value("--metrics-out");
    let force = args.value("--force").is_some();
    if let Some(path) = metrics_out {
        guard_overwrite(path, force)?;
    }
    let workloads = resolve_workloads(&args.positionals)?;
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
    if let Some(path) = metrics_out {
        let registry = Registry::new();
        stats.export(&registry);
        write_metrics(out, path, &registry.snapshot(), force)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `--help` names exactly the commands `run` dispatches, in the
    /// same order, and each named command is reached: a bogus flag is
    /// that command's error, never `unknown command`.
    #[test]
    fn usage_and_dispatch_agree() {
        let help = usage();
        let listed: Vec<&str> = (help.lines())
            .filter_map(|line| line.strip_prefix("    lifepred "))
            .map(|rest| rest.split_whitespace().next().unwrap_or_default())
            .collect();
        let dispatched: Vec<&str> = COMMANDS.iter().map(Command::name).collect();
        assert_eq!(listed, dispatched);
        for name in listed {
            let args = [name.to_owned(), "--no-such-flag".to_owned()];
            let err = run(&args, &mut Vec::new()).expect_err(name);
            assert!(!err.starts_with("unknown command"), "{name}: {err}");
        }
    }

    /// Each row parses by what it declares: long names are unique, an
    /// alias is one dash and a letter, a flag is optional, a scope
    /// names an option of the same row, and help fits 80 columns.
    #[test]
    fn every_row_is_well_formed() {
        for row in COMMANDS {
            let longs: Vec<&str> = row.opts.iter().map(|o| o.parts().1).collect();
            for (i, opt) in row.opts.iter().enumerate() {
                let (alias, long, value) = opt.parts();
                let at = format!("{}: {}", row.usage, opt.spec);
                assert!(
                    long.starts_with("--") && !longs[..i].contains(&long),
                    "{at}"
                );
                assert!(
                    alias.is_none_or(|a| a.len() == 2 && a.starts_with('-')),
                    "{at}"
                );
                assert!(value.is_empty() || value.starts_with('<'), "{at}");
                assert!(!value.is_empty() || opt.kind == Optional, "{at}");
                if let Scope::Only(when) | Scope::Not(when) = opt.scope {
                    let other = when.split(' ').next().unwrap_or_default();
                    assert!(longs.contains(&other), "{at}: {when}");
                }
            }
        }
        let help = usage();
        assert!(help.lines().all(|l| l.chars().count() <= 80), "{help}");
    }
}
