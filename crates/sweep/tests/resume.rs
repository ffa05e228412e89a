//! Sweep resume semantics, end to end: a killed run keeps every cell
//! it finished, a resume recomputes only the dirty remainder, and the
//! rendered table cannot tell the difference.

use lifepred_sweep::{
    render_csv, render_table, run_sweep, Backend, CancelFlag, GridSpec, ResultStore, SweepOptions,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lifepred-sweep-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A churn workload; `salt` differentiates the traces' content (and
/// thus their cache identities).
fn churn_trace(name: &str, salt: u32, events: usize) -> lifepred_trace::Trace {
    let s = lifepred_trace::TraceSession::new(name);
    {
        let _g = s.enter("keeper");
        let kept: Vec<_> = (0..8).map(|_| s.alloc(128 + salt)).collect();
        {
            let _g = s.enter("churn");
            for i in 0..events {
                let a = s.alloc(32 + (i as u32 % 4) * 8 + salt);
                s.free(a);
            }
        }
        for id in kept {
            s.free(id);
        }
    }
    s.finish()
}

fn write_traces(dir: &Path, names: &[&str], events: usize) -> Vec<String> {
    names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let path = dir.join(format!("{name}.lpt"));
            lifepred_tracefile::save_trace(&path, &churn_trace(name, i as u32, events))
                .expect("save trace");
            path.to_string_lossy().into_owned()
        })
        .collect()
}

/// Satellite: kill a sweep partway, resume, and verify only the dirty
/// cells recompute while the rendered outputs stay byte-identical.
#[test]
fn killed_sweep_resumes_without_recomputing() {
    let dir = scratch("resume");
    let spec = GridSpec {
        name: "resume-test".into(),
        traces: write_traces(&dir, &["alpha", "beta", "gamma"], 600),
        backends: vec![Backend::Offline],
        thresholds: vec![8 * 1024, 16 * 1024, 32 * 1024],
        ..GridSpec::default()
    };
    let store = ResultStore::open(dir.join("store")).expect("store");
    let opts = SweepOptions {
        threads: 1, // deterministic cell count at the cancel point
        want_metrics: false,
    };

    // "Kill" after 4 of the 9 cells: the cancel flag stands in for
    // SIGTERM — both stop workers between cells, never mid-cell.
    let cancel_at = 4usize;
    let cancel = CancelFlag::new();
    let hook = {
        let cancel = cancel.clone();
        move |done: usize, _total: usize| {
            if done >= cancel_at {
                cancel.cancel();
            }
        }
    };
    let killed = run_sweep(&spec, &store, &opts, &cancel, Some(&hook)).expect("killed run");
    assert!(killed.stats.cancelled);
    assert_eq!(killed.stats.unique, 9, "{:?}", killed.stats);
    assert_eq!(
        killed.stats.computed, cancel_at,
        "one worker stops exactly there"
    );
    assert_eq!(store.len(), cancel_at, "every finished cell was persisted");

    // Resume: the cache answers exactly the finished cells (the
    // cache-hit counter is pinned, not just bounded) and only the
    // remainder recomputes.
    let resumed = run_sweep(&spec, &store, &opts, &CancelFlag::new(), None).expect("resume");
    assert_eq!(resumed.stats.cache_hits, cancel_at);
    assert_eq!(resumed.stats.computed, 9 - cancel_at);
    assert_eq!(resumed.stats.errors, 0);
    assert!(resumed.outcomes.iter().all(|o| o.result.is_some()));

    // A fully-cached rerun renders byte-identically to the resumed
    // run: cache provenance must not leak into tables or CSV.
    let warm = run_sweep(&spec, &store, &opts, &CancelFlag::new(), None).expect("warm");
    assert_eq!(warm.stats.cache_hits, 9);
    assert_eq!(render_table(&resumed), render_table(&warm));
    assert_eq!(render_csv(&resumed), render_csv(&warm));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Acceptance: on a ≥24-cell grid, a re-run must be ≥95% cache hits
/// and at least 5× faster than the cold run.
#[test]
fn warm_rerun_is_hits_and_fast() {
    let dir = scratch("accept");
    let spec = GridSpec {
        name: "acceptance".into(),
        traces: write_traces(&dir, &["alpha", "beta"], 4000),
        backends: vec![Backend::Offline, Backend::Online],
        thresholds: vec![8 * 1024, 16 * 1024, 32 * 1024],
        arenas: vec![
            lifepred_heap::ArenaConfig::parse("16x4096").expect("arena"),
            lifepred_heap::ArenaConfig::parse("32x8192").expect("arena"),
        ],
        ..GridSpec::default()
    };
    assert!(spec.cell_count() >= 24, "grid is {}", spec.cell_count());
    let store = ResultStore::open(dir.join("store")).expect("store");
    let opts = SweepOptions {
        threads: 2,
        want_metrics: false,
    };

    let cold_started = Instant::now();
    let cold = run_sweep(&spec, &store, &opts, &CancelFlag::new(), None).expect("cold");
    let cold_ms = cold_started.elapsed().as_millis().max(1);
    assert_eq!(cold.stats.cache_hits, 0);
    assert_eq!(cold.stats.errors, 0);
    assert_eq!(cold.stats.computed, cold.stats.unique);

    let warm_started = Instant::now();
    let warm = run_sweep(&spec, &store, &opts, &CancelFlag::new(), None).expect("warm");
    let warm_ms = warm_started.elapsed().as_millis().max(1);
    assert_eq!(warm.stats.computed, 0);
    assert!(
        warm.stats.cache_hits * 100 >= warm.stats.unique * 95,
        "re-run must be ≥95% hits: {:?}",
        warm.stats
    );
    assert!(
        cold_ms >= 5 * warm_ms,
        "re-run must be ≥5× faster: cold {cold_ms}ms vs warm {warm_ms}ms"
    );

    // Editing one axis value dirties only the touched column.
    let mut edited = spec.clone();
    edited.thresholds = vec![8 * 1024, 16 * 1024, 48 * 1024];
    let partial = run_sweep(&edited, &store, &opts, &CancelFlag::new(), None).expect("edited");
    assert!(partial.stats.cache_hits > 0, "{:?}", partial.stats);
    assert!(
        partial.stats.computed < partial.stats.unique,
        "{:?}",
        partial.stats
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The progress hook sees every computed cell exactly once across
/// kill + resume — the contract `lifepred sweep resume` prints from.
#[test]
fn progress_across_kill_and_resume_covers_each_cell_once() {
    let dir = scratch("resume-progress");
    let spec = GridSpec {
        name: "resume-progress".into(),
        traces: write_traces(&dir, &["alpha"], 400),
        backends: vec![Backend::Offline],
        thresholds: vec![4 * 1024, 8 * 1024, 16 * 1024, 32 * 1024],
        ..GridSpec::default()
    };
    let store = ResultStore::open(dir.join("store")).expect("store");
    let opts = SweepOptions {
        threads: 1,
        want_metrics: false,
    };
    let fired = AtomicUsize::new(0);
    let cancel = CancelFlag::new();
    {
        let hook = |done: usize, _total: usize| {
            fired.fetch_add(1, Ordering::Relaxed);
            if done >= 2 {
                cancel.cancel();
            }
        };
        let killed = run_sweep(&spec, &store, &opts, &cancel, Some(&hook)).expect("killed");
        assert_eq!(killed.stats.computed, 2);
    }
    let hook = |_done: usize, _total: usize| {
        fired.fetch_add(1, Ordering::Relaxed);
    };
    let resumed =
        run_sweep(&spec, &store, &opts, &CancelFlag::new(), Some(&hook)).expect("resumed");
    assert_eq!(resumed.stats.cache_hits, 2);
    assert_eq!(
        fired.load(Ordering::Relaxed),
        4,
        "each unique cell computed exactly once across the two runs"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// One damaged trace costs exactly its own cells: every cell opens its
/// trace through the checksum-verifying mapped reader, so a flipped
/// bit is a per-cell checksum error while the rest of the grid
/// completes.
#[test]
fn bit_flipped_trace_fails_its_cells_and_spares_the_rest() {
    let dir = scratch("bitflip");
    let traces = write_traces(&dir, &["good", "bad"], 600);
    let mut bytes = std::fs::read(&traces[1]).expect("read trace");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&traces[1], &bytes).expect("damage trace");
    let spec = GridSpec {
        name: "bitflip-test".into(),
        traces,
        backends: vec![Backend::FirstFit, Backend::Bsd, Backend::Online],
        ..GridSpec::default()
    };
    let store = ResultStore::open(dir.join("store")).expect("store");
    let opts = SweepOptions {
        threads: 2,
        want_metrics: false,
    };
    let outcome = run_sweep(&spec, &store, &opts, &CancelFlag::new(), None).expect("sweep runs");
    assert_eq!(outcome.outcomes.len(), 6);
    for cell in &outcome.outcomes {
        if cell.cell.trace == spec.traces[1] {
            let error = cell.error.as_deref().expect("damaged trace must error");
            assert!(cell.result.is_none());
            assert!(error.contains("checksum mismatch"), "{error}");
        } else {
            assert_eq!(cell.error, None);
            assert!(cell.result.is_some(), "{:?}", cell.cell);
        }
    }
    assert_eq!(outcome.stats.errors, 3);
    assert_eq!(outcome.stats.computed, 3);
    let _ = std::fs::remove_dir_all(&dir);
}
