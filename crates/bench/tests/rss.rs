//! Replay memory does not grow with the trace file: a BSD replay of a
//! mapped `.lpt` four times the size of another raises the process's
//! peak resident set by under a quarter of the bytes the larger file
//! adds — the mapping is released behind the CRC pass and the decoder,
//! and the replay's per-object state is bounded by live objects.
//!
//! A binary of its own, so no other test's allocations land in this
//! process's peak. Linux only: it resets the peak through
//! `/proc/self/clear_refs` and reads it back as `VmHWM`.

#![cfg(target_os = "linux")]

use lifepred_bench::simulate_file;
use lifepred_heap::ReplayPlan;
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

/// Writes a `gen` trace of about `events` events; returns its path,
/// size in bytes and object count.
fn generated(events: u64) -> (std::path::PathBuf, u64, u64) {
    let path =
        std::env::temp_dir().join(format!("lifepred-rss-{}-{events}.lpt", std::process::id()));
    let sink = BufWriter::new(File::create(&path).expect("create trace"));
    let (summary, sink) = generate_lpt(&SimConfig::for_events(events, 1), sink).expect("generate");
    sink.into_inner().expect("flush trace");
    let file_bytes = std::fs::metadata(&path).expect("trace metadata").len();
    (path, file_bytes, summary.objects)
}

/// Resets the peak resident set to the current one, replays `path`
/// through BSD and returns how far the peak grew; `None` if the peak
/// cannot be reset.
fn replay_growth(path: &std::path::Path, objects: u64) -> Option<u64> {
    // Writing 5 resets VmHWM to the current resident set.
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        println!("skipped: cannot reset the peak RSS through /proc/self/clear_refs: {e}");
        return None;
    }
    let before = peak_rss_bytes();
    let path_str = path.to_str().expect("UTF-8 temp path");
    let sim = simulate_file(path_str, &ReplayPlan::Bsd, false).expect("simulate");
    assert_eq!(sim.report.total_allocs, objects);
    Some(peak_rss_bytes().saturating_sub(before))
}

#[test]
fn a_bsd_replay_grows_peak_rss_by_under_a_quarter_of_the_file() {
    if std::env::var_os("LIFEPRED_NO_MMAP").is_some() {
        println!("skipped: LIFEPRED_NO_MMAP reads the whole trace onto the heap");
        return;
    }
    let (small, small_bytes, small_objects) = generated(1_250_000);
    let (large, large_bytes, large_objects) = generated(5_000_000);
    assert!(large_bytes > 3 * small_bytes, "{small_bytes} {large_bytes}");
    // The first replay also pays what any replay allocates once (the
    // chunk, the live table's ring, the allocator's own arenas).
    let growth = replay_growth(&small, small_objects).and_then(|warm| {
        let small = replay_growth(&small, small_objects)?;
        let large = replay_growth(&large, large_objects)?;
        Some((warm, small, large))
    });
    std::fs::remove_file(&small).ok();
    std::fs::remove_file(&large).ok();
    let Some((warm, small_growth, large_growth)) = growth else {
        return;
    };
    let mb = |bytes: u64| bytes as f64 / 1e6;
    println!(
        "peak RSS grew {:.2} MB (first replay), then {:.2} MB replaying {:.1} MB \
         and {:.2} MB replaying {:.1} MB",
        mb(warm),
        mb(small_growth),
        mb(small_bytes),
        mb(large_growth),
        mb(large_bytes)
    );
    let added = large_bytes - small_bytes;
    assert!(
        large_growth.saturating_sub(small_growth) < added / 4,
        "peak RSS grew {large_growth} B replaying {large_bytes} B, \
         {small_growth} B replaying {small_bytes} B"
    );
}
