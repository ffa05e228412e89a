//! The end-to-end side: set up a workload's inputs, run repetitions as
//! child processes (closed loop, one at a time), check every output and
//! reduce the timings to the end-to-end metrics.

use crate::child::TRAILER;
use crate::spec::{Workload, END_TO_END};
use crate::stats::{median, quartiles, Quartiles};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// The seed whose outputs are pinned under `expected/`.
pub const PINNED_SEED: u64 = 1;

/// Input sizes and repetition counts of one mode of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// `gen --events` of `train.lpt` and `test.lpt`.
    pub trace_events: &'static str,
    /// `gen --events` of `big.lpt`.
    pub big_events: &'static str,
    /// Storm operations per thread.
    pub storm_ops: usize,
    /// Set-ups timed per run (`setup_s` is their median).
    pub setups: usize,
    /// Fewest timed repetitions, however short `--seconds` is.
    pub min_reps: usize,
    /// The CI mode: `expected/` does not describe outputs at this scale,
    /// one traced iteration is enough, and `tables` is not traced (its
    /// programs' inputs are fixed, so that run cannot shrink).
    pub quick: bool,
}

impl Scale {
    /// The sizes every recorded number refers to.
    pub const FULL: Scale = Scale {
        trace_events: "1m",
        big_events: "10m",
        storm_ops: 10_000_000,
        setups: 3,
        min_reps: 3,
        quick: false,
    };
    /// `--smoke`: small traces and two repetitions, for a CI job.
    pub const SMOKE: Scale = Scale {
        trace_events: "100k",
        big_events: "100k",
        storm_ops: 200_000,
        setups: 1,
        min_reps: 2,
        quick: true,
    };
}

/// Everything a run of one workload needs to know.
#[derive(Debug, Clone)]
pub struct Run {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
}

impl Run {
    /// Directory holding this workload's generated inputs and scratch
    /// files: `benchmark/out/<workload>`.
    pub fn dir(&self) -> PathBuf {
        out_dir().join(self.workload.name())
    }

    /// Whether this run's outputs are pinned under `expected/`.
    fn pinned(&self) -> bool {
        !self.scale.quick && self.seed == PINNED_SEED
    }
}

/// `benchmark/out`, where every file the benchmark writes lives.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Generated inputs of one set-up.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Inputs {
    /// Trace events one repetition replays (0 when the workload reads
    /// no trace: the caller fills it from the repetition itself).
    pub replayed_events: u64,
    /// Events `gen` produced over all its calls, and the time it took.
    pub gen_events: u64,
    pub gen_s: f64,
}

/// Runs `lifepred gen` in process and returns the events generated.
fn gen(path: &Path, events: &str, seed: u64) -> Result<u64, String> {
    let args = [
        "gen".to_owned(),
        "--events".to_owned(),
        events.to_owned(),
        "--seed".to_owned(),
        seed.to_string(),
        "-o".to_owned(),
        path.display().to_string(),
        "--force".to_owned(),
    ];
    let mut out = Vec::new();
    lifepred_cli::run(&args, &mut out)?;
    // "<path>: <n> events, <m> objects …"
    let text = String::from_utf8_lossy(&out);
    text.split(" events")
        .next()
        .and_then(|head| head.rsplit(' ').next())
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| format!("gen printed no event count: {text:?}"))
}

/// Recreates the workload's directory and generates its inputs from the
/// seed: `train.lpt` from S, `test.lpt` from S+1, `big.lpt` from S+2.
pub fn generate_inputs(run: &Run) -> Result<Inputs, String> {
    let dir = run.dir();
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let small = run.scale.trace_events;
    let wanted: &[(&str, &str, u64, bool)] = match run.workload {
        Workload::ReplayFirstfit | Workload::ReplayOnline => &[("test.lpt", small, 1, true)],
        Workload::ReplayBsd => &[("big.lpt", run.scale.big_events, 2, true)],
        Workload::TrainArena => &[("train.lpt", small, 0, false), ("test.lpt", small, 1, true)],
        Workload::Tables | Workload::GallocStorm => &[],
    };
    let mut inputs = Inputs::default();
    let started = Instant::now();
    for &(file, events, offset, replayed) in wanted {
        let n = gen(&dir.join(file), events, run.seed + offset)?;
        inputs.gen_events += n;
        if replayed {
            inputs.replayed_events += n;
        }
    }
    inputs.gen_s = started.elapsed().as_secs_f64();
    Ok(inputs)
}

/// What one child process reported.
#[derive(Debug, Clone, PartialEq)]
pub struct Repetition {
    pub wall_s: f64,
    pub peak_rss_kb: u64,
    pub cpu_s: f64,
    /// Frees `LifepredGlobal` dropped because their segment had been
    /// reset under them. Reported, not failed: README, "A race the storm
    /// found".
    pub wild_frees: u64,
    /// Standard output without the trailer line.
    pub output: String,
    /// Exited zero after printing its trailer.
    pub exit_ok: bool,
    /// The exit status as the OS reports it (code or signal).
    pub status: String,
}

fn trailer_field(trailer: &str, key: &str) -> Option<u64> {
    trailer
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
}

/// Spawns `child <args>` in `dir`, waits for it and times spawn→exit.
pub fn run_child(dir: &Path, args: &[String]) -> Result<Repetition, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let started = Instant::now();
    let output = Command::new(exe)
        .arg("child")
        .args(args)
        .current_dir(dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the child failed: {e}"))?;
    let wall_s = started.elapsed().as_secs_f64();
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    let (body, trailer) = match stdout.rfind(TRAILER) {
        Some(at) => (stdout[..at].to_owned(), stdout[at..].to_owned()),
        None => (stdout, String::new()),
    };
    Ok(Repetition {
        wall_s,
        peak_rss_kb: trailer_field(&trailer, "vmhwm_kb").unwrap_or(0),
        cpu_s: crate::procfs::ticks_to_s(trailer_field(&trailer, "cpu_ticks").unwrap_or(0)),
        wild_frees: trailer_field(&trailer, "wild_frees").unwrap_or(0),
        output: body,
        exit_ok: output.status.success() && !trailer.is_empty(),
        status: output.status.to_string(),
    })
}

/// The child arguments of one repetition of `run`.
fn child_args(run: &Run) -> Vec<String> {
    let mut args = vec![run.workload.name().to_owned()];
    if run.workload == Workload::GallocStorm {
        args.push(run.seed.to_string());
        args.push(run.scale.storm_ops.to_string());
    }
    args
}

/// First whitespace-separated token after `key:` on the line of `text`
/// that starts with it, as a number.
pub fn field(text: &str, key: &str) -> Option<u64> {
    let line = text
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))?;
    line.split_whitespace().next()?.parse().ok()
}

/// Whether every line of `expected` appears in `actual`, in order. Lines
/// the program adds later do not fail the check; a changed statistic
/// does.
fn contains_lines_in_order(actual: &str, expected: &str) -> bool {
    let mut actual = actual.lines();
    expected
        .lines()
        .all(|want| actual.by_ref().any(|got| got == want))
}

/// Checks repetition outputs: against the pinned expectation when there
/// is one, and always against each other.
#[derive(Debug, Clone, Default)]
pub struct OutputCheck {
    expected: Option<String>,
    first: Option<String>,
}

impl OutputCheck {
    pub fn new(run: &Run) -> Result<OutputCheck, String> {
        let expected = if run.pinned() {
            let path = Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("expected")
                .join(format!("{}.txt", run.workload.name()));
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            Some(text)
        } else {
            None
        };
        Ok(OutputCheck {
            expected,
            first: None,
        })
    }

    /// Whether `rep` exited zero with the right output; says why not on
    /// standard error.
    pub fn passes(&mut self, rep: &Repetition) -> bool {
        let first = self.first.get_or_insert_with(|| rep.output.clone());
        let complaint = if !rep.exit_ok {
            format!("exited with {}", rep.status)
        } else if self
            .expected
            .as_ref()
            .is_some_and(|expected| !contains_lines_in_order(&rep.output, expected))
        {
            "does not print what expected/ pins".to_owned()
        } else if *first != rep.output {
            "does not print what the first repetition printed".to_owned()
        } else {
            return true;
        };
        eprintln!(
            "benchmark: a repetition {complaint}; it printed:\n{}",
            rep.output
        );
        false
    }
}

/// Events per repetition of a workload that reads no trace.
fn untraced_events(run: &Run, first_output: &str) -> Result<u64, String> {
    match run.workload {
        Workload::GallocStorm => {
            let calls = |key| field(first_output, key).ok_or(format!("storm printed no {key}"));
            Ok(calls("alloc calls")? + calls("free calls")?)
        }
        Workload::Tables => Ok(crate::layers::recorded_events()),
        _ => Err(format!("{} replays no trace", run.workload.name())),
    }
}

/// The measured end-to-end numbers of one run.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    pub setup_s: Vec<f64>,
    pub wall_s: Vec<f64>,
    pub cpu_s: Vec<f64>,
    pub peak_rss_kb: Vec<f64>,
    pub events: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Wild frees over all repetitions (see [`Repetition::wild_frees`]).
    pub wild_frees: u64,
    /// Output of the first repetition, for the traced run to compare
    /// its in-process statistics with.
    pub output: String,
    pub inputs: Inputs,
    check: OutputCheck,
}

impl Measured {
    /// Runs one more child of `run` and checks its output.
    fn child(&mut self, run: &Run) -> Result<Repetition, String> {
        let rep = run_child(&run.dir(), &child_args(run))?;
        self.attempted += 1;
        self.failed += u64::from(!self.check.passes(&rep));
        self.wild_frees += rep.wild_frees;
        Ok(rep)
    }

    /// Runs one more timed repetition of `run` and returns its wall time.
    pub fn repeat(&mut self, run: &Run) -> Result<f64, String> {
        let rep = self.child(run)?;
        self.wall_s.push(rep.wall_s);
        self.cpu_s.push(rep.cpu_s);
        self.peak_rss_kb.push(rep.peak_rss_kb as f64);
        Ok(rep.wall_s)
    }

    pub fn wall(&self) -> Quartiles {
        quartiles(&self.wall_s)
    }

    /// `(name, unit, value)` of every end-to-end metric.
    pub fn metrics(&self) -> Vec<(&'static str, &'static str, f64)> {
        let wall_s = self.wall().q1;
        let values = [
            median(&self.setup_s),
            wall_s,
            self.events as f64 / wall_s,
            // The median, not the maximum: the storm's peak depends on
            // thread timing, and the largest of ten is not repeatable.
            median(&self.peak_rss_kb) * 1024.0 / 1e6,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit, _, _), v)| (name, unit, v))
            .collect()
    }
}

/// Sets `run` up `scale.setups` times (inputs + one untimed warm-up
/// repetition each), then repeats the workload for `run.seconds` (at
/// least `scale.min_reps` times), checking every output.
pub fn measure(run: &Run) -> Result<Measured, String> {
    let mut m = Measured {
        check: OutputCheck::new(run)?,
        ..Measured::default()
    };
    for _ in 0..run.scale.setups {
        let started = Instant::now();
        m.inputs = generate_inputs(run)?;
        let warm_up = m.child(run)?;
        m.setup_s.push(started.elapsed().as_secs_f64());
        m.output = warm_up.output;
    }
    m.events = match m.inputs.replayed_events {
        0 => untraced_events(run, &m.output)?,
        n => n,
    };
    let started = Instant::now();
    while m.wall_s.len() < run.scale.min_reps || started.elapsed().as_secs_f64() < run.seconds {
        m.repeat(run)?;
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_and_trailers_parse() {
        let text =
            "program:        server\nallocations:    464741\narena allocs:   265194 (57.1%)\n";
        assert_eq!(field(text, "allocations"), Some(464_741));
        assert_eq!(field(text, "arena allocs"), Some(265_194));
        assert_eq!(field(text, "program"), None);
        assert_eq!(field(text, "bytes"), None);
        let trailer = "##child vmhwm_kb=81234 cpu_ticks=97 wild_frees=0";
        assert_eq!(trailer_field(trailer, "vmhwm_kb"), Some(81_234));
        assert_eq!(trailer_field(trailer, "cpu_ticks"), Some(97));
        assert_eq!(trailer_field(trailer, "wild_frees"), Some(0));
        assert_eq!(trailer_field(trailer, "cpu"), None);
    }

    #[test]
    fn expected_lines_must_all_appear_in_order() {
        let actual = "a: 1\nnew line\nb: 2\nc: 3\n";
        assert!(contains_lines_in_order(actual, "a: 1\nb: 2\nc: 3\n"));
        assert!(contains_lines_in_order(actual, "b: 2\n"));
        assert!(!contains_lines_in_order(actual, "b: 2\na: 1\n"));
        assert!(!contains_lines_in_order(actual, "a: 1\nb: 9\n"));
    }
}
