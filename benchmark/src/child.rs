//! One repetition, as its own process.
//!
//! The benchmark binary re-executes itself as `child <workload> …` with
//! the workload's input directory as working directory. The child calls
//! `lifepred_cli::run` exactly as `crates/cli/src/main.rs` does (same
//! `#[global_allocator]`, see `main.rs`), so a repetition costs what a
//! user of the shipped `lifepred` binary pays. Its last line of output
//! reports its own peak RSS, CPU time and the allocator's wild frees.

use crate::procfs;
use crate::spec::Workload;
use crate::storm::storm;
use lifepred_galloc::{GallocConfig, LifepredGlobal};
use std::io::Write;

/// Prefix of the line the child ends its output with.
pub const TRAILER: &str = "##child";

/// The `lifepred` commands one repetition of `workload` runs, in order.
/// File names are relative to the workload's input directory.
pub fn commands(workload: Workload) -> &'static [&'static [&'static str]] {
    match workload {
        Workload::ReplayFirstfit => &[&["simulate", "test.lpt", "--allocator", "first-fit"]],
        Workload::ReplayBsd => &[&["simulate", "big.lpt", "--allocator", "bsd"]],
        Workload::TrainArena => &[
            &["train", "train.lpt", "-o", "pred.json"],
            &["simulate", "test.lpt", "--predictor", "pred.json"],
        ],
        Workload::ReplayOnline => &[&["simulate", "test.lpt", "--predictor", "online"]],
        Workload::Tables => &[&["report", "--jobs", "2"]],
        Workload::GallocStorm => &[],
    }
}

fn run_cli(args: &[&str], out: &mut dyn Write) -> Result<(), String> {
    let args: Vec<String> = args.iter().map(|a| (*a).to_owned()).collect();
    lifepred_cli::run(&args, out)
}

/// The storm repetition: two threads through the activated allocator,
/// then the double-free counter, which must stay zero, and the calls
/// made. (`wild_frees` goes in the trailer instead: README, "A race the
/// storm found".)
fn run_storm(seed: u64, ops: usize, out: &mut dyn Write) -> Result<(), String> {
    lifepred_galloc::activate_with(GallocConfig::default())?;
    let (_, calls) = storm(&LifepredGlobal::new(), 2, ops, seed);
    let stats = lifepred_galloc::stats();
    writeln!(
        out,
        "short free underflows: {}\n\
         alloc calls:           {}\n\
         free calls:            {}",
        stats.short_free_underflows, calls.allocs, calls.frees
    )
    .map_err(|e| format!("write failed: {e}"))
}

/// Entry point of `child <what> [<seed> <ops>]`, where `<what>` is a
/// workload name or `native` (the `lifepred native` command, timed once
/// by the traced storm run). Returns the process exit code.
pub fn main(args: &[String]) -> u8 {
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let what = args.first().map(String::as_str).unwrap_or_default();
    let result = match Workload::parse(what) {
        Some(Workload::GallocStorm) => match (
            args.get(1).and_then(|s| s.parse().ok()),
            args.get(2).and_then(|s| s.parse().ok()),
        ) {
            (Some(seed), Some(ops)) => run_storm(seed, ops, &mut out),
            _ => Err("usage: child galloc_storm <seed> <ops>".to_owned()),
        },
        Some(workload) => commands(workload)
            .iter()
            .try_for_each(|cmd| run_cli(cmd, &mut out)),
        None if what == "native" => run_cli(&["native"], &mut out),
        None => Err(format!("usage: unknown child workload {what:?}")),
    };
    let code = match result {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("lifepred: {e}");
            lifepred_cli::exit_code(&e)
        }
    };
    let trailer = writeln!(
        out,
        "{TRAILER} vmhwm_kb={} cpu_ticks={} wild_frees={}",
        procfs::peak_rss_kb().unwrap_or(0),
        procfs::cpu_ticks().unwrap_or(0),
        lifepred_galloc::stats().wild_frees
    );
    if trailer.is_err() {
        return 1;
    }
    code
}
