//! The one benchmark for lifepred. See `README.md` beside `Cargo.toml`
//! and `BENCHMARK.json` at the repository root.
//!
//! ```text
//! lifepred-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! lifepred-benchmark [--seed <n>] [--seconds <s>] [--smoke] [--record] [--check-repeat]
//! ```
//!
//! The first form runs one workload and ends its output with one JSON
//! object: the end-to-end metrics (`--trace 0`, untraced child
//! processes) or the per-layer metrics (`--trace 1`, one traced
//! in-process run). The second form runs all six workloads both ways
//! and prints every metric by name with its unit and sample count.

mod child;
mod endtoend;
mod layers;
mod procfs;
mod spans;
mod spec;
mod stats;
mod storm;

use endtoend::{measure, Measured, Run, Scale};
use layers::Traced;
use spec::{Workload, END_TO_END};
use std::io::Write;
use std::process::ExitCode;

/// Every repetition is a child of this binary, so this is the allocator
/// a repetition runs on — installed exactly as `crates/cli/src/main.rs`
/// installs it: a system passthrough until something activates it.
#[global_allocator]
static GLOBAL: lifepred_galloc::LifepredGlobal = lifepred_galloc::LifepredGlobal::new();

const USAGE: &str = "\
usage: lifepred-benchmark [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>]
                          [--smoke] [--record] [--check-repeat]
  --workload <name>  one of replay_firstfit, replay_bsd, train_arena, replay_online,
                     tables, galloc_storm; the last line printed is then one JSON object.
                     Without it, all six run, untraced and traced
  --seed <n>         inputs are generated from this seed (default 1, the pinned one)
  --seconds <s>      how long one run measures (default 10 with --workload, else 6)
  --trace <0|1>      with --workload: 0 = end-to-end metrics, 1 = per-layer metrics
  --smoke            100k-event traces, two repetitions, one traced iteration (none of
                     `tables`): finishes in under 15 s
  --record           append this run's end-to-end metrics to benchmark/history.jsonl
  --check-repeat     two interleaved sets of three runs each; the sets' medians are compared
                     against the metrics' bounds, and two traced passes' counts with each other
";

struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
    record: bool,
    check_repeat: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: endtoend::PINNED_SEED,
        seconds: None,
        traced: false,
        smoke: false,
        record: false,
        check_repeat: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                o.workload =
                    Some(Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                o.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], not {s}"));
                }
                o.seconds = Some(s);
            }
            "--trace" => {
                o.traced = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => o.smoke = true,
            "--record" => o.record = true,
            "--check-repeat" => o.check_repeat = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(o)
}

/// JSON number for `v`. Rust prints floats in plain decimal with every
/// digit needed to read them back, which is also valid JSON.
fn number(v: f64) -> String {
    assert!(v.is_finite(), "metric values are finite");
    format!("{v}")
}

/// The contract's result line.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

fn print_end_to_end(out: &mut dyn Write, run: &Run, m: &Measured) -> std::io::Result<()> {
    let wall = m.wall();
    writeln!(
        out,
        "{} (seed {}): {} repetitions + {} set-ups, {} failed, {} events per repetition",
        run.workload.name(),
        run.seed,
        m.wall_s.len(),
        m.setup_s.len(),
        m.failed,
        m.events
    )?;
    for (name, unit, v) in m.metrics() {
        let note = match name {
            "setup_s" => format!("median of {} set-ups", m.setup_s.len()),
            "wall_s" => format!(
                "q1 of {} repetitions; median {:.4}, q3 {:.4}",
                m.wall_s.len(),
                wall.median,
                wall.q3
            ),
            "events_per_s" => "events / wall_s".to_owned(),
            _ => format!("median of {} repetitions", m.wall_s.len()),
        };
        writeln!(out, "  {name:<32} {v:>16.4} {unit:<9} ({note})")?;
    }
    if m.wild_frees > 0 {
        writeln!(
            out,
            "  WARNING: the allocator dropped {} wild frees (README, \"A race the storm found\")",
            m.wild_frees
        )?;
    }
    Ok(())
}

fn print_traced(out: &mut dyn Write, run: &Run, t: &Traced) -> std::io::Result<()> {
    writeln!(
        out,
        "{} traced (seed {}): {} iterations in process, {} reference children, sequence wall {:.4} s",
        run.workload.name(),
        run.seed,
        t.iterations,
        t.reference.wall_s.len(),
        t.sequence_wall_s
    )?;
    for (name, unit, v, n) in t.ledger.metrics() {
        if n == 0 {
            continue;
        }
        // Layer time over the sequence's wall time: the share a faster
        // layer could at most save on this workload.
        let share = if unit == "s" && !layers::OUTSIDE_SEQUENCE.contains(&name) {
            format!("{:>6.1} % of the sequence", 100.0 * v / t.sequence_wall_s)
        } else {
            String::new()
        };
        writeln!(out, "  {name:<32} {v:>16.4} {unit:<9} n={n:<3} {share}")?;
    }
    writeln!(
        out,
        "  (metrics not listed read 0: the workload does not reach that layer)"
    )
}

/// One `--workload` run under the driver's contract: the human-readable
/// table, then the result line. Returns whether the outputs were correct.
fn run_one(out: &mut dyn Write, run: &Run, traced: bool) -> Result<bool, String> {
    let runs = std::slice::from_ref(run);
    let (correct, line) = if traced {
        let t = trace_all(out, runs)?
            .pop()
            .flatten()
            .ok_or("--smoke does not trace `tables`")?;
        let metrics: Vec<_> = t
            .ledger
            .metrics()
            .into_iter()
            .map(|(name, unit, v, _)| (name, unit, v))
            .collect();
        let r = &t.reference;
        let line = result_line(t.correct(), r.attempted, r.failed, &metrics);
        (t.correct(), line)
    } else {
        let m = measure_all(out, runs)?.remove(0);
        let correct = m.failed == 0;
        (
            correct,
            result_line(correct, m.attempted, m.failed, &m.metrics()),
        )
    };
    writeln!(out, "{line}").map_err(|e| format!("write failed: {e}"))?;
    Ok(correct)
}

/// Git revision of the repository, or `unknown` outside one.
fn git_rev() -> String {
    let repo = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let git = |args: &[&str]| {
        let out = std::process::Command::new("git")
            .arg("-C")
            .arg(&repo)
            .args(args)
            .output()
            .ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
    };
    match git(&["rev-parse", "--short", "HEAD"]) {
        Some(rev) if !rev.is_empty() => match git(&["status", "--porcelain"]) {
            Some(changes) if !changes.is_empty() => format!("{rev}+changes"),
            _ => rev,
        },
        _ => "unknown".to_owned(),
    }
}

/// Appends one line to `benchmark/history.jsonl`: revision, host, seed
/// and every end-to-end metric of every workload.
fn record_history(runs: &[Run], measured: &[Measured]) -> Result<(), String> {
    let host = lifepred_bench::BenchHost::probe();
    let workloads: Vec<String> = runs
        .iter()
        .zip(measured)
        .map(|(run, m)| {
            let metrics: Vec<String> = m
                .metrics()
                .iter()
                .map(|(name, _, v)| format!("\"{name}\": {}", number(*v)))
                .collect();
            format!("\"{}\": {{{}}}", run.workload.name(), metrics.join(", "))
        })
        .collect();
    let (seed, seconds) = runs.first().map_or((0, 0.0), |r| (r.seed, r.seconds));
    let line = format!(
        "{{\"rev\": \"{}\", {}, \"seed\": {seed}, \"seconds\": {seconds}, \"workloads\": {{{}}}}}\n",
        git_rev(),
        host.json_fields(),
        workloads.join(", ")
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("history.jsonl");
    std::fs::OpenOptions::new()
        .append(true)
        .create(true)
        .open(&path)
        .and_then(|mut f| f.write_all(line.as_bytes()))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Every selected workload untraced, printed as it completes.
fn measure_all(out: &mut dyn Write, runs: &[Run]) -> Result<Vec<Measured>, String> {
    let mut measured = Vec::new();
    for run in runs {
        let m = measure(run)?;
        print_end_to_end(out, run, &m).map_err(|e| format!("write failed: {e}"))?;
        measured.push(m);
    }
    Ok(measured)
}

/// Every selected workload traced, printed as it completes. `None` for
/// the one run `--smoke` skips.
fn trace_all(out: &mut dyn Write, runs: &[Run]) -> Result<Vec<Option<Traced>>, String> {
    let mut traced = Vec::new();
    for run in runs {
        if run.scale.quick && run.workload == Workload::Tables {
            traced.push(None);
            continue;
        }
        let t = layers::trace(run)?;
        print_traced(out, run, &t).map_err(|e| format!("write failed: {e}"))?;
        traced.push(Some(t));
    }
    Ok(traced)
}

fn all_correct(measured: &[Measured], traced: &[Option<Traced>]) -> bool {
    measured.iter().all(|m| m.failed == 0) && traced.iter().flatten().all(Traced::correct)
}

/// Untraced passes per set of `--check-repeat`. One run against one run
/// mostly compares two phases of the host; the driver compares medians
/// of ten, this compares medians of three.
const REPEAT_PASSES: usize = 3;

/// `--check-repeat`: two sets of runs of the same build, interleaved.
/// Every end-to-end metric's median over the second set must be within
/// its bound of the first set's, and every exact per-layer value of two
/// traced passes identical.
fn check_repeat(out: &mut dyn Write, runs: &[Run]) -> Result<bool, String> {
    let io = |e: std::io::Error| format!("write failed: {e}");
    let mut ok = true;
    let mut sets: [Vec<Vec<Measured>>; 2] = [Vec::new(), Vec::new()];
    for _ in 0..REPEAT_PASSES {
        for set in &mut sets {
            let measured = measure_all(out, runs)?;
            ok &= all_correct(&measured, &[]);
            set.push(measured);
        }
    }
    let first_traced = trace_all(out, runs)?;
    let second_traced = trace_all(out, runs)?;
    ok &= all_correct(&[], &first_traced) && all_correct(&[], &second_traced);

    writeln!(
        out,
        "\nrepeatability: medians of {REPEAT_PASSES} runs, second set against first, vs bound"
    )
    .map_err(io)?;
    for (w, run) in runs.iter().enumerate() {
        for (i, (name, _, better, bound)) in END_TO_END.into_iter().enumerate() {
            let median_of = |set: &Vec<Vec<Measured>>| {
                let values: Vec<f64> = set.iter().map(|pass| pass[w].metrics()[i].2).collect();
                stats::median(&values)
            };
            let (a, b) = (median_of(&sets[0]), median_of(&sets[1]));
            // Positive = the second set is worse.
            let worse = if better == "lower" {
                b / a - 1.0
            } else {
                a / b - 1.0
            };
            ok &= worse <= bound;
            writeln!(
                out,
                "  {:<16} {name:<14} {a:>14.4} -> {b:>14.4}  {:>+7.2} % (bound {:.0} %) {}",
                run.workload.name(),
                worse * 100.0,
                bound * 100.0,
                if worse <= bound { "ok" } else { "EXCEEDS" }
            )
            .map_err(io)?;
        }
    }
    for ((run, a), b) in runs.iter().zip(&first_traced).zip(&second_traced) {
        let exact = |t: &Option<Traced>| {
            t.as_ref()
                .map_or_else(Vec::new, |t| t.ledger.exact_values())
        };
        let (a, b) = (exact(a), exact(b));
        ok &= a == b;
        writeln!(
            out,
            "  {:<16} {} exact per-layer values {}",
            run.workload.name(),
            a.len(),
            if a == b { "identical" } else { "DIFFER" }
        )
        .map_err(io)?;
    }
    Ok(ok)
}

fn run(args: &[String], out: &mut dyn Write) -> Result<bool, String> {
    let o = parse(args)?;
    let scale = if o.smoke { Scale::SMOKE } else { Scale::FULL };
    std::fs::create_dir_all(endtoend::out_dir()).map_err(|e| format!("benchmark/out: {e}"))?;
    let make = |workload, default_seconds| Run {
        workload,
        seed: o.seed,
        seconds: if o.smoke {
            0.0
        } else {
            o.seconds.unwrap_or(default_seconds)
        },
        scale,
    };
    let runs: Vec<Run> = match o.workload {
        Some(w) => vec![make(w, 10.0)],
        None => Workload::ALL.iter().map(|&w| make(w, 6.0)).collect(),
    };
    if o.check_repeat {
        return check_repeat(out, &runs);
    }
    if o.workload.is_some() && !o.record {
        return run_one(out, &runs[0], o.traced);
    }
    let measured = measure_all(out, &runs)?;
    let traced = trace_all(out, &runs)?;
    if o.record {
        record_history(&runs, &measured)?;
    }
    Ok(all_correct(&measured, &traced))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("child") {
        return ExitCode::from(child::main(&args[1..]));
    }
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let stdout = std::io::stdout();
    match run(&args, &mut stdout.lock()) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark: a repetition failed or an output was wrong");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
