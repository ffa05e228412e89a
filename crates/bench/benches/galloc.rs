//! Throughput of [`lifepred_galloc::LifepredGlobal`] vs the system
//! allocator under a multi-threaded mixed allocation storm.
//!
//! Both allocators are driven explicitly through the [`GlobalAlloc`]
//! trait (nothing is installed as the process allocator), so the two
//! sides run identical harness code in one binary and the comparison
//! is paired: per thread-count, rounds alternate galloc/System and the
//! reported ratio is the median of per-round ratios.
//!
//! The storm is the magazine hot path's natural diet: per-thread
//! rolling windows of small blocks (every size class plus a slice of
//! the large-fallback range), random alloc/free interleave, one byte
//! written per block so the memory is really touched. Thread counts
//! sweep 1/4/16/64; on a small host the higher counts measure
//! oversubscription (contention and cache hand-off), not parallel
//! speedup — `cores` is recorded in the output so the numbers read
//! honestly.
//!
//! `cargo bench -p lifepred-bench --bench galloc` writes
//! `results/BENCH_galloc.json`; `LIFEPRED_BENCH_SMOKE=1` (or
//! `--test`) runs short and leaves the recorded results untouched.

use lifepred_galloc::{GallocConfig, LifepredGlobal};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::time::Instant;

/// Allocations per round, split across the round's threads.
const OPS: usize = 400_000;

/// Live blocks each thread holds in its rolling window.
const WINDOW: usize = 128;

/// Paired rounds per thread count.
const ROUNDS: usize = 9;

/// Thread counts swept (the acceptance bar sits at 16).
const THREADS: [usize; 4] = [1, 4, 16, 64];

fn smoke() -> bool {
    std::env::var_os("LIFEPRED_BENCH_SMOKE").is_some() || std::env::args().any(|a| a == "--test")
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// One thread's slice of the storm: a rolling window over random
/// sizes, 7/8 small-class, 1/8 spilling past 2 KiB into each
/// allocator's large path.
fn storm_thread<A: GlobalAlloc>(a: &A, seed: u64, ops: usize) {
    let mut rng = Rng(seed | 1);
    let mut window: Vec<(*mut u8, Layout)> = Vec::with_capacity(WINDOW);
    for _ in 0..ops {
        let r = rng.next();
        if window.len() == WINDOW || (r & 3 == 0 && !window.is_empty()) {
            let (ptr, layout) = window.swap_remove((r >> 32) as usize % window.len());
            // SAFETY: ptr came from `a` with this layout and leaves
            // the window exactly once.
            unsafe { a.dealloc(ptr, layout) };
        } else {
            let size = if r & 7 == 7 {
                (r >> 8) as usize % 6144 + 2049
            } else {
                (r >> 8) as usize % 2048 + 1
            };
            let layout = Layout::from_size_align(size, 8).unwrap();
            // SAFETY: non-zero size.
            let ptr = unsafe { a.alloc(layout) };
            assert!(!ptr.is_null());
            // SAFETY: first byte of a live block.
            unsafe { ptr.write(size as u8) };
            window.push((ptr, layout));
        }
    }
    for (ptr, layout) in window {
        // SAFETY: every remaining block is live and freed once.
        unsafe { a.dealloc(ptr, layout) };
    }
}

/// Runs one full storm round: `ops` operations split over `threads`.
fn storm<A: GlobalAlloc + Sync>(a: &A, threads: usize, ops: usize) -> f64 {
    let per_thread = ops / threads;
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            s.spawn(move || storm_thread(a, 0x9e37_79b9 * (t as u64 + 1), per_thread));
        }
    });
    start.elapsed().as_secs_f64()
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

fn main() {
    let ops = if smoke() { OPS / 20 } else { OPS };
    let rounds = if smoke() { 3 } else { ROUNDS };
    let host = lifepred_bench::BenchHost::probe();

    let galloc = LifepredGlobal::new();
    lifepred_galloc::activate_with(GallocConfig::default()).expect("activate");

    // Warm both paths (first-touch of the area, magazine fill).
    storm(&galloc, 2, ops / 4);
    storm(&System, 2, ops / 4);

    let mut lines = Vec::new();
    let mut reports = Vec::new();
    let mut ratio16 = 0.0;
    for &threads in &THREADS {
        let mut ratios = Vec::new();
        let mut t_galloc = Vec::new();
        let mut t_system = Vec::new();
        for round in 0..rounds {
            // Alternate which side goes first so drift cancels.
            let (g, s) = if round % 2 == 0 {
                let g = storm(&galloc, threads, ops);
                let s = storm(&System, threads, ops);
                (g, s)
            } else {
                let s = storm(&System, threads, ops);
                let g = storm(&galloc, threads, ops);
                (g, s)
            };
            t_galloc.push(g);
            t_system.push(s);
            ratios.push(s / g);
        }
        let g = median(t_galloc);
        let s = median(t_system);
        let ratio = median(ratios);
        if threads == 16 {
            ratio16 = ratio;
        }
        reports.push(format!(
            "    {{\"threads\": {threads}, \
               \"galloc_ops_per_sec\": {:.0}, \
               \"system_ops_per_sec\": {:.0}, \
               \"galloc_vs_system\": {ratio:.3}}}",
            ops as f64 / g,
            ops as f64 / s,
        ));
        lines.push(format!(
            "threads={threads:>2}: galloc {:>12.0} ops/s, system {:>12.0} ops/s ({ratio:.2}x)",
            ops as f64 / g,
            ops as f64 / s,
        ));
    }

    let stats = lifepred_galloc::stats();
    for line in &lines {
        println!("{line}");
    }
    println!(
        "galloc counters: hit rate {:.2}%, {} remote frees, 0 expected: wild={}",
        stats.hit_rate() * 100.0,
        stats.remote_frees,
        stats.wild_frees,
    );
    assert_eq!(stats.wild_frees, 0);

    let json = format!(
        "{{\n  \
           \"schema\": \"lifepred-bench-galloc-v1\",\n  \
           \"smoke\": {smoke},\n  \
           {host_fields},\n  \
           \"ops_per_round\": {ops},\n  \
           \"rounds\": {rounds},\n  \
           \"window_per_thread\": {WINDOW},\n  \
           \"magazine_hit_rate\": {hit:.4},\n  \
           \"storm\": [\n{storm}\n  ]\n}}\n",
        smoke = smoke(),
        host_fields = host.json_fields(),
        hit = stats.hit_rate(),
        storm = reports.join(",\n"),
    );
    if smoke() {
        println!("smoke mode: results/BENCH_galloc.json left untouched");
    } else {
        assert!(
            ratio16 >= 0.7,
            "16-thread mixed storm fell below 0.7x System ({ratio16:.3})"
        );
        let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/BENCH_galloc.json");
        std::fs::write(&out, &json).expect("write results/BENCH_galloc.json");
        println!("wrote {}", out.display());
    }
}
