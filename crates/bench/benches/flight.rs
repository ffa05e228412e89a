//! Overhead of the flight recorder on the galloc hot path, in both
//! build configurations:
//!
//! * **feature out** (default build): galloc's instrumented call sites
//!   compile to empty stubs. The paired comparison runs the allocation
//!   churn bare vs with an *extra* explicit stub span+instant per
//!   operation — the measured overhead holds the "compiled-out tracing
//!   is free" claim (budget ≤ 0.5 %, asserted at a loose 1 % to leave
//!   room for scheduler noise).
//! * **feature on** (`--features flight`): the same churn with
//!   recording off vs recording on at the default ring size. Events
//!   only fire on galloc's slow paths (magazine refill/flush, remote
//!   drain, reclaim), so the hot path pays nothing per op and the
//!   budget is ≤ 5 %. A separate microbench times the raw emit path
//!   (ns/event) while recording.
//!
//! Methodology is the same as `obs.rs`/`galloc.rs`: every round times
//! both configurations back to back with alternating order and the
//! reported overhead is the median of the per-round ratios, which
//! cancels machine drift. Results land in `results/BENCH_flight.json`;
//! because one binary can only measure one build configuration, each
//! full run rewrites its own section (`"disabled"` or `"enabled"`) and
//! preserves the other section from the existing file. Run both:
//!
//! ```text
//! cargo bench -p lifepred-bench --bench flight
//! cargo bench -p lifepred-bench --bench flight --features flight
//! ```
//!
//! `LIFEPRED_BENCH_SMOKE=1` (or `--test`) exercises the harness
//! without asserting budgets or touching the recorded results.

use lifepred_galloc::{GallocConfig, LifepredGlobal};
use std::alloc::{GlobalAlloc, Layout};
use std::path::Path;
use std::time::Instant;

/// Alloc/free operations per round.
const OPS: usize = 200_000;

/// Live blocks in the churn's rolling window.
const WINDOW: usize = 128;

/// Paired rounds (odd, for a clean median).
const ROUNDS: usize = 31;

/// Batches for the raw-emit microbench (feature-on build only).
const EMIT_ROUNDS: usize = 25;

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

/// One round of small-object churn on galloc's magazine hot path: a
/// rolling window of random small sizes, one byte written per block.
/// With `STUB` every operation also opens a span and emits an instant
/// — in the default build those are the compiled-out stubs whose cost
/// this bench exists to measure. `STUB` is a const generic so the two
/// variants monomorphize without a per-operation branch.
fn churn<const STUB: bool>(a: &LifepredGlobal, ops: usize) {
    let mut rng = Rng(0x2545_f491_4f6c_dd1d);
    let mut window: Vec<(*mut u8, Layout)> = Vec::with_capacity(WINDOW);
    for _ in 0..ops {
        let r = rng.next();
        let _guard = if STUB {
            let g = lifepred_flight::span_arg(lifepred_flight::catalog::CLI_WORKLOAD, r & 0xff);
            lifepred_flight::instant(lifepred_flight::catalog::SWEEP_CACHE_HIT, r & 0xff);
            Some(g)
        } else {
            None
        };
        if window.len() == WINDOW || (r & 3 == 0 && !window.is_empty()) {
            let (ptr, layout) = window.swap_remove((r >> 32) as usize % window.len());
            // SAFETY: ptr came from `a` with this layout and leaves
            // the window exactly once.
            unsafe { a.dealloc(ptr, layout) };
        } else {
            let size = (r >> 8) as usize % 2048 + 1;
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

/// Paired rounds of baseline `a` vs instrumented `b`: ops/sec for
/// each (median of rounds) and overhead in percent (median of the
/// per-round `t_b / t_a` ratios). `after_round` runs untimed between
/// rounds — the feature-on build drains the rings there so a full
/// ring's drop path never contaminates the push-path measurement.
fn paired_overhead(
    rounds: usize,
    ops: u64,
    mut a: impl FnMut(),
    mut b: impl FnMut(),
    mut after_round: impl FnMut(),
) -> (f64, f64, f64) {
    let time = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64()
    };
    let (mut times_a, mut times_b, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..rounds {
        let (ta, tb) = if round % 2 == 0 {
            let ta = time(&mut a);
            (ta, time(&mut b))
        } else {
            let tb = time(&mut b);
            (time(&mut a), tb)
        };
        times_a.push(ta);
        times_b.push(tb);
        ratios.push(tb / ta);
        after_round();
    }
    let median = |times: &mut Vec<f64>| {
        times.sort_by(f64::total_cmp);
        times[times.len() / 2]
    };
    (
        ops as f64 / median(&mut times_a),
        ops as f64 / median(&mut times_b),
        100.0 * (median(&mut ratios) - 1.0),
    )
}

fn median_f64(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Pulls the other build configuration's one-line section out of an
/// existing `BENCH_flight.json`, so a feature-out run doesn't erase
/// the recorded feature-on numbers and vice versa.
fn preserved_section(existing: &str, key: &str) -> Option<String> {
    let prefix = format!("\"{key}\":");
    existing.lines().find_map(|line| {
        let value = line.trim_start().strip_prefix(&prefix)?;
        let value = value.trim().trim_end_matches(',').trim();
        (value != "null" && value.starts_with('{')).then(|| value.to_owned())
    })
}

fn main() {
    let ops = if smoke() { OPS / 20 } else { OPS };
    let rounds = if smoke() { 5 } else { ROUNDS };
    let host = lifepred_bench::BenchHost::probe();

    let galloc = LifepredGlobal::new();
    lifepred_galloc::activate_with(GallocConfig::default()).expect("activate");

    // Warm the magazines (and, feature-on, this thread's event ring).
    lifepred_flight::set_recording(true);
    churn::<true>(&galloc, ops / 4);
    lifepred_flight::set_recording(false);
    let _ = lifepred_flight::drain();
    churn::<false>(&galloc, ops / 4);
    // The stub-flood warm-up overruns the ring by design; count only
    // drops that happen during the measurements below.
    let dropped_base = lifepred_flight::dropped_events();

    let (disabled_section, enabled_section);
    if lifepred_flight::COMPILED {
        // Recording off vs on: the flag load vs real slow-path events.
        let mut drained: u64 = 0;
        let (off_ops, on_ops, overhead) = paired_overhead(
            rounds,
            ops as u64,
            || churn::<false>(&galloc, ops),
            || {
                lifepred_flight::set_recording(true);
                churn::<false>(&galloc, ops);
                lifepred_flight::set_recording(false);
            },
            || drained += lifepred_flight::drain().len() as u64,
        );

        // Raw emit path: ns per instant event while recording, rings
        // drained untimed between batches so pushes never hit a full
        // ring.
        let batch = (lifepred_flight::ring_capacity() / 2).max(1024);
        lifepred_flight::set_recording(true);
        let mut ns = Vec::new();
        for _ in 0..EMIT_ROUNDS {
            let t = Instant::now();
            for i in 0..batch {
                lifepred_flight::instant(lifepred_flight::catalog::SWEEP_CACHE_HIT, i as u64);
            }
            ns.push(t.elapsed().as_nanos() as f64 / batch as f64);
            drained += lifepred_flight::drain().len() as u64;
        }
        lifepred_flight::set_recording(false);
        let emit_ns = median_f64(ns);
        let dropped = lifepred_flight::dropped_events() - dropped_base;

        println!(
            "recording off {off_ops:.0} ops/s, on {on_ops:.0} ops/s ({overhead:+.2}% overhead)"
        );
        println!(
            "emit: {emit_ns:.1} ns/event, ring {} events, drained {drained}, dropped {dropped}",
            lifepred_flight::ring_capacity(),
        );
        if !smoke() {
            assert!(
                overhead <= 5.0,
                "recording-on galloc churn overhead {overhead:.2}% exceeds the 5% budget"
            );
        }
        enabled_section = Some(format!(
            "{{\"ops\": {ops}, \"rounds\": {rounds}, \
               \"off_ops_per_sec\": {off_ops:.0}, \
               \"on_ops_per_sec\": {on_ops:.0}, \
               \"overhead_pct\": {overhead:.2}, \
               \"emit_ns_per_event\": {emit_ns:.1}, \
               \"ring_events\": {ring}, \
               \"drained_events\": {drained}, \
               \"dropped_events\": {dropped}}}",
            ring = lifepred_flight::ring_capacity(),
        ));
        disabled_section = None;
    } else {
        // Bare churn vs churn plus an explicit stub span+instant per
        // operation: the compiled-out instrumentation must be free.
        let (plain_ops, stub_ops, overhead) = paired_overhead(
            rounds,
            ops as u64,
            || churn::<false>(&galloc, ops),
            || churn::<true>(&galloc, ops),
            || {},
        );
        println!(
            "plain {plain_ops:.0} ops/s, stub-instrumented {stub_ops:.0} ops/s \
             ({overhead:+.2}% overhead)"
        );
        if !smoke() {
            assert!(
                overhead <= 1.0,
                "compiled-out stubs cost {overhead:.2}% — they must be free (≤ 0.5% budget, \
                 1% assert for noise headroom)"
            );
        }
        disabled_section = Some(format!(
            "{{\"ops\": {ops}, \"rounds\": {rounds}, \
               \"plain_ops_per_sec\": {plain_ops:.0}, \
               \"stub_ops_per_sec\": {stub_ops:.0}, \
               \"overhead_pct\": {overhead:.2}}}"
        ));
        enabled_section = None;
    }

    if smoke() {
        println!("smoke mode: results/BENCH_flight.json left untouched");
        return;
    }

    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/BENCH_flight.json");
    let existing = std::fs::read_to_string(&out).unwrap_or_default();
    let disabled = disabled_section
        .or_else(|| preserved_section(&existing, "disabled"))
        .unwrap_or_else(|| "null".to_owned());
    let enabled = enabled_section
        .or_else(|| preserved_section(&existing, "enabled"))
        .unwrap_or_else(|| "null".to_owned());
    let json = format!(
        "{{\n  \
           \"schema\": \"lifepred-bench-flight-v1\",\n  \
           \"smoke\": false,\n  \
           {host_fields},\n  \
           \"disabled\": {disabled},\n  \
           \"enabled\": {enabled}\n}}\n",
        host_fields = host.json_fields(),
    );
    std::fs::write(&out, &json).expect("write results/BENCH_flight.json");
    println!("wrote {}", out.display());
}
