//! Replay memory does not grow with the trace file: a BSD replay of a
//! mapped multi-megabyte `.lpt` raises the process's peak resident set
//! by under a quarter of the file's size — the mapping is released
//! behind the CRC pass and the decoder, and the replay's per-object
//! state is bounded by live objects.
//!
//! A binary of its own, so no other test's allocations land in this
//! process's peak. Linux only: it resets the peak through
//! `/proc/self/clear_refs` and reads it back as `VmHWM`.

#![cfg(target_os = "linux")]

use lifepred_heap::ReplayPlan;
use lifepred_sweep::simulate_file;
use lifepred_workloads::server::sim::SimConfig;
use lifepred_workloads::server::synth::generate_lpt;
use std::fs::File;
use std::io::BufWriter;

/// This process's peak resident set in bytes.
fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|line| line.starts_with("VmHWM:"))
        .expect("VmHWM line");
    let kb: u64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .expect("VmHWM in kB");
    kb * 1024
}

#[test]
fn a_bsd_replay_grows_peak_rss_by_under_a_quarter_of_the_file() {
    if std::env::var_os("LIFEPRED_NO_MMAP").is_some() {
        println!("skipped: LIFEPRED_NO_MMAP reads the whole trace onto the heap");
        return;
    }
    let path = std::env::temp_dir().join(format!("lifepred-rss-{}.lpt", std::process::id()));
    let sink = BufWriter::new(File::create(&path).expect("create trace"));
    let (summary, sink) =
        generate_lpt(&SimConfig::for_events(5_000_000, 1), sink).expect("generate");
    sink.into_inner().expect("flush trace");
    let file_bytes = std::fs::metadata(&path).expect("trace metadata").len();
    assert!(summary.events >= 3_000_000, "{summary:?}");

    // Writing 5 resets VmHWM to the current resident set.
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        std::fs::remove_file(&path).ok();
        println!("skipped: cannot reset the peak RSS through /proc/self/clear_refs: {e}");
        return;
    }
    let before = peak_rss_bytes();
    let path_str = path.to_str().expect("UTF-8 temp path");
    let sim = simulate_file(path_str, &ReplayPlan::Bsd, false);
    let growth = peak_rss_bytes().saturating_sub(before);
    std::fs::remove_file(&path).ok();

    let sim = sim.expect("simulate");
    assert_eq!(sim.report.total_allocs, summary.objects);
    println!(
        "peak RSS grew {:.1} MB replaying a {:.1} MB trace of {} events",
        growth as f64 / 1e6,
        file_bytes as f64 / 1e6,
        summary.events
    );
    assert!(
        growth < file_bytes / 4,
        "peak RSS grew {growth} B replaying a {file_bytes} B trace"
    );
}
