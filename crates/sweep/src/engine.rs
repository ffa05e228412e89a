//! The sweep engine: expand a grid, probe the cache, and run what the
//! cache cannot answer in two phases on [`run_jobs`].
//!
//! # Two phases
//!
//! A grid expands into *unique executions* — cells deduplicated by
//! cache key, so a first-fit baseline crossed with three thresholds
//! runs once. Phase 1 trains one database per distinct trace × policy
//! × rounding × threshold that an uncached offline execution needs.
//! Phase 2 runs every uncached execution; an offline one borrows its
//! phase-1 database, so every arena geometry replaying against the
//! same database shares one training.
//!
//! # Guarantees
//!
//! * Cancellation ([`CancelFlag`]) is checked before each training and
//!   each cell, never mid-replay: a skipped job reports "cancelled
//!   before running", and finished cells are always fully persisted —
//!   that is what makes `sweep resume` sound after a kill.
//! * Every job body runs under `catch_unwind`: a panic becomes that
//!   job's "training panicked" / "cell execution panicked" error, and
//!   every other job still runs.
//! * A cell is saved to the store before the progress hook fires.

use crate::cell::{run_cell, train_for, TrainKey, TrainedDb};
use crate::driver::run_jobs;
use crate::spec::{CellConfig, GridSpec};
use crate::store::{cell_key, trace_identity, CellKey, CellResult, ResultStore};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The error of a job that cancellation skipped.
const CANCELLED: &str = "cancelled before running";

/// Cooperative cancellation: cloned into the engine and flipped by a
/// signal handler ([`install_shutdown_handlers`]) or a test.
#[derive(Debug, Clone, Default)]
pub struct CancelFlag(Arc<AtomicBool>);

impl CancelFlag {
    /// A fresh, unset flag.
    pub fn new() -> CancelFlag {
        CancelFlag::default()
    }

    /// Requests cancellation; workers stop between jobs.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether cancellation was requested.
    pub(crate) fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// The flag [`install_shutdown_handlers`] registered; read by the
/// signal handler. `OnceLock::get` is a lock-free atomic load, so the
/// handler never takes a lock.
static SHUTDOWN_FLAG: std::sync::OnceLock<CancelFlag> = std::sync::OnceLock::new();

#[cfg(unix)]
extern "C" fn on_signal(_signum: i32) {
    // Async-signal-safe: one atomic load (OnceLock::get on an
    // already-initialized cell) and one atomic store (CancelFlag).
    if let Some(flag) = SHUTDOWN_FLAG.get() {
        flag.cancel();
    }
}

/// Registers `flag` to be cancelled on SIGINT (ctrl-c) or SIGTERM, so
/// a running [`run_sweep`] stops between cells: everything finished is
/// already persisted, and `sweep resume` picks up the rest.
///
/// Only the first registered flag wins; later calls do nothing. On
/// non-Unix targets this is a no-op.
pub fn install_shutdown_handlers(flag: &CancelFlag) {
    if SHUTDOWN_FLAG.set(flag.clone()).is_err() {
        return;
    }
    #[cfg(unix)]
    {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        extern "C" {
            /// `signal(2)`. Declared here instead of pulling in a
            /// bindings crate: the workspace is dependency-free and
            /// this is the one libc call the sweep engine needs.
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        // SAFETY: `signal` is the C standard library's handler
        // registration. The handler we install (`on_signal`) is an
        // `extern "C" fn(i32)` matching the expected ABI, performs
        // only async-signal-safe operations (two atomic accesses, no
        // locks, no allocation), and lives for the whole program
        // (a static item). SIGINT/SIGTERM are valid signal numbers on
        // every Unix this crate targets.
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

/// What happened to one grid cell.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// The cell's configuration, as the grid spelled it.
    pub cell: CellConfig,
    /// Its cache key (shared with every cell that collapses to the
    /// same canonical execution).
    pub key: CellKey,
    /// The measurement, when available.
    pub result: Option<CellResult>,
    /// Whether the result came from the cache (`false` for freshly
    /// computed cells *and* for missing results).
    pub cached: bool,
    /// The failure message, when the cell errored.
    pub error: Option<String>,
}

/// Aggregate accounting for one sweep run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Grid cells in the spec.
    pub cells: usize,
    /// Unique executions after canonical collapse.
    pub unique: usize,
    /// Unique executions answered by the cache.
    pub cache_hits: usize,
    /// Unique executions computed this run.
    pub computed: usize,
    /// Unique executions that failed.
    pub errors: usize,
    /// Whether the run was cancelled before finishing.
    pub cancelled: bool,
    /// Wall-clock duration of the whole sweep in milliseconds.
    pub elapsed_ms: u64,
}

/// Everything [`run_sweep`] produces.
#[derive(Debug)]
pub struct SweepOutcome {
    /// The spec that ran.
    pub spec: GridSpec,
    /// Per-cell outcomes, in grid order (trace → backend → policy →
    /// threshold → epoch → arena — the table renderer's contract).
    pub outcomes: Vec<CellOutcome>,
    /// Aggregate accounting.
    pub stats: SweepStats,
}

/// One unique execution: a representative cell plus its key.
struct Exec {
    cell: CellConfig,
    key: CellKey,
    /// Index into the training table, for offline cells.
    train: Option<usize>,
}

/// Runs `body` over `items` on `threads` workers as sweep jobs, one
/// slot per item in input order. Once `cancel` has fired, the jobs not
/// yet started are skipped (`None`). A panic in `body` becomes
/// `Err(panicked)` for that job alone.
fn run_guarded<I, T, F>(
    items: Vec<I>,
    threads: usize,
    cancel: &CancelFlag,
    panicked: &str,
    body: F,
) -> Vec<Option<Result<T, String>>>
where
    I: Send,
    T: Send,
    F: Fn(I) -> Result<T, String> + Sync,
{
    run_jobs(items, threads, |_, item| {
        if cancel.is_cancelled() {
            return None;
        }
        let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(item)));
        Some(ran.unwrap_or_else(|_| Err(panicked.to_owned())))
    })
}

/// Runs `spec` against `store` on `threads` workers (at least one),
/// recomputing only what the cache cannot answer.
///
/// `progress` is invoked with `(computed_cells, cells_to_compute)`
/// after every freshly computed cell — the hook the CLI's progress
/// lines and the resume test's cancel-after-N both build on.
///
/// # Errors
///
/// Returns a message only for spec-level failures (invalid grid).
/// Per-cell failures — missing trace files, corrupt traces — land in
/// that cell's [`CellOutcome::error`] and the run keeps going.
pub fn run_sweep(
    spec: &GridSpec,
    store: &ResultStore,
    threads: usize,
    cancel: &CancelFlag,
    progress: Option<&(dyn Fn(usize, usize) + Sync)>,
) -> Result<SweepOutcome, String> {
    let started = Instant::now();
    spec.validate()?;
    let cells = spec.cells();

    // Identify every distinct trace once. A missing file fails all of
    // its cells, not the sweep.
    let mut identities: HashMap<&str, Result<crate::store::TraceIdentity, String>> = HashMap::new();
    for cell in &cells {
        identities.entry(cell.trace.as_str()).or_insert_with(|| {
            trace_identity(&cell.trace).map_err(|e| format!("{}: {e}", cell.trace))
        });
    }

    // Collapse the grid into unique executions and probe the cache.
    let mut execs: Vec<Exec> = Vec::new();
    let mut exec_of_key: HashMap<CellKey, usize> = HashMap::new();
    let mut trains: Vec<TrainKey> = Vec::new();
    let mut train_of_key: HashMap<TrainKey, usize> = HashMap::new();
    // Per grid cell: Ok(exec index) or Err(identity failure).
    let mut cell_exec: Vec<Result<usize, String>> = Vec::with_capacity(cells.len());
    let mut cached: Vec<Option<CellResult>> = Vec::new();
    for cell in &cells {
        match &identities[cell.trace.as_str()] {
            Err(e) => cell_exec.push(Err(e.clone())),
            Ok(identity) => {
                let key = cell_key(*identity, cell);
                let exec = *exec_of_key.entry(key).or_insert_with(|| {
                    let hit = store.load(key);
                    let train = if hit.is_none() {
                        TrainKey::of(cell).map(|tk| {
                            *train_of_key.entry(tk.clone()).or_insert_with(|| {
                                trains.push(tk);
                                trains.len() - 1
                            })
                        })
                    } else {
                        None
                    };
                    execs.push(Exec {
                        cell: cell.clone(),
                        key,
                        train,
                    });
                    cached.push(hit);
                    execs.len() - 1
                });
                cell_exec.push(Ok(exec));
            }
        }
    }

    let cache_hits = cached.iter().filter(|c| c.is_some()).count();
    let to_compute: Vec<usize> = (0..execs.len()).filter(|&i| cached[i].is_none()).collect();

    // Phase 1: every training an uncached offline cell needs.
    let trained: Vec<Result<TrainedDb, String>> =
        run_guarded(trains, threads, cancel, "training panicked", |key| {
            train_for(&key)
        })
        .into_iter()
        .map(|slot| slot.unwrap_or_else(|| Err(CANCELLED.to_owned())))
        .collect();

    // Phase 2: every uncached cell, saved before progress reports it.
    let total_cells_to_compute = to_compute.len();
    let cells_done = AtomicUsize::new(0);
    let fresh = run_guarded(
        to_compute,
        threads,
        cancel,
        "cell execution panicked",
        |e| {
            let exec = &execs[e];
            let outcome = match exec.train {
                Some(t) => trained[t]
                    .as_ref()
                    .map_err(Clone::clone)
                    .and_then(|db| run_cell(&exec.cell, Some(db))),
                None => run_cell(&exec.cell, None),
            }
            .and_then(|result| {
                store
                    .save(exec.key, &exec.cell, &result)
                    .map_err(|e| format!("cache write {}: {e}", exec.key))
                    .map(|()| result)
            });
            let done_cells = cells_done.fetch_add(1, Ordering::AcqRel) + 1;
            if let Some(progress) = progress {
                progress(done_cells, total_cells_to_compute);
            }
            outcome
        },
    );
    let cancelled = fresh.iter().any(Option::is_none);

    // Assemble grid-order outcomes from the cache hits and fresh runs.
    let mut computed = 0usize;
    let mut errors = 0usize;
    let mut fresh = fresh.into_iter();
    let exec_outcome: Vec<(Option<CellResult>, bool, Option<String>)> = cached
        .into_iter()
        .map(|hit| match hit {
            Some(result) => (Some(result), true, None),
            None => match fresh.next().flatten() {
                Some(Ok(result)) => {
                    computed += 1;
                    (Some(result), false, None)
                }
                Some(Err(e)) => {
                    errors += 1;
                    (None, false, Some(e))
                }
                None => (None, false, Some(CANCELLED.to_owned())),
            },
        })
        .collect();

    let outcomes: Vec<CellOutcome> = cells
        .into_iter()
        .zip(cell_exec)
        .map(|(cell, exec)| match exec {
            Err(e) => CellOutcome {
                cell,
                key: CellKey(0),
                result: None,
                cached: false,
                error: Some(e),
            },
            Ok(i) => {
                let (result, was_cached, error) = exec_outcome[i].clone();
                CellOutcome {
                    cell,
                    key: execs[i].key,
                    result,
                    cached: was_cached,
                    error,
                }
            }
        })
        .collect();
    // Cells whose trace could not even be identified never got an
    // execution; they are errors too, on top of the per-exec ones.
    let identity_errors = outcomes
        .iter()
        .filter(|o| o.key == CellKey(0) && o.error.is_some())
        .count();

    Ok(SweepOutcome {
        spec: spec.clone(),
        stats: SweepStats {
            cells: outcomes.len(),
            unique: execs.len(),
            cache_hits,
            computed,
            errors: errors + identity_errors,
            cancelled,
            elapsed_ms: started.elapsed().as_millis() as u64,
        },
        outcomes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Backend;
    use std::path::PathBuf;
    use std::sync::Mutex;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "lifepred-sweep-engine-{name}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    fn churn_trace(name: &str) -> lifepred_trace::Trace {
        let s = lifepred_trace::TraceSession::new(name);
        {
            let _g = s.enter("churn");
            for _ in 0..400 {
                let a = s.alloc(64);
                s.free(a);
            }
        }
        s.finish()
    }

    fn demo_spec(dir: &std::path::Path) -> GridSpec {
        let mut traces = Vec::new();
        for name in ["alpha", "beta"] {
            let path = dir.join(format!("{name}.lpt"));
            lifepred_tracefile::save_trace(&path, &churn_trace(name)).expect("save trace");
            traces.push(path.to_string_lossy().into_owned());
        }
        GridSpec {
            name: "engine-test".into(),
            traces,
            backends: vec![Backend::Offline, Backend::FirstFit],
            thresholds: vec![16 * 1024, 32 * 1024],
            ..GridSpec::default()
        }
    }

    #[test]
    fn cold_run_computes_warm_run_hits() {
        let dir = scratch("warm");
        let spec = demo_spec(&dir);
        let store = ResultStore::open(dir.join("store")).expect("store");
        let cold = run_sweep(&spec, &store, 2, &CancelFlag::new(), None).expect("cold run");
        // 2 traces × (offline × 2 thresholds + firstfit collapsed) = 6
        assert_eq!(cold.stats.cells, 8);
        assert_eq!(cold.stats.unique, 6);
        assert_eq!(cold.stats.cache_hits, 0);
        assert_eq!(cold.stats.computed, 6);
        assert_eq!(cold.stats.errors, 0);
        assert!(cold.outcomes.iter().all(|o| o.result.is_some()));

        let warm = run_sweep(&spec, &store, 2, &CancelFlag::new(), None).expect("warm run");
        assert_eq!(warm.stats.cache_hits, 6, "warm run is all hits");
        assert_eq!(warm.stats.computed, 0);
        for (a, b) in cold.outcomes.iter().zip(&warm.outcomes) {
            assert_eq!(a.result, b.result, "cached result identical");
            assert!(b.cached);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_trace_fails_its_cells_only() {
        let dir = scratch("missing");
        let mut spec = demo_spec(&dir);
        spec.traces
            .push(dir.join("ghost.lpt").to_string_lossy().into_owned());
        let store = ResultStore::open(dir.join("store")).expect("store");
        let out = run_sweep(&spec, &store, 1, &CancelFlag::new(), None).expect("sweep runs");
        let (bad, good): (Vec<_>, Vec<_>) = out
            .outcomes
            .iter()
            .partition(|o| o.cell.trace.ends_with("ghost.lpt"));
        assert!(bad.iter().all(|o| o.error.is_some() && o.result.is_none()));
        assert!(good.iter().all(|o| o.result.is_some()));
        assert_eq!(out.stats.errors, 4, "one trace × 4 grid cells");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancel_mid_run_keeps_finished_cells() {
        let dir = scratch("cancel");
        let spec = demo_spec(&dir);
        let store = ResultStore::open(dir.join("store")).expect("store");
        let cancel = CancelFlag::new();
        let cancel_at = 2usize;
        let hook = {
            let cancel = cancel.clone();
            move |done: usize, _total: usize| {
                if done >= cancel_at {
                    cancel.cancel();
                }
            }
        };
        let out = run_sweep(&spec, &store, 1, &cancel, Some(&hook)).expect("sweep runs");
        assert!(out.stats.cancelled);
        assert!(out.stats.computed >= cancel_at);
        assert!(out.stats.computed < out.stats.unique, "cancel left work");
        // Everything computed before the cancel is persisted.
        let resumed = run_sweep(&spec, &store, 1, &CancelFlag::new(), None).expect("resume");
        assert_eq!(resumed.stats.cache_hits, out.stats.computed);
        assert_eq!(
            resumed.stats.computed,
            resumed.stats.unique - out.stats.computed
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn progress_reports_monotonic_counts() {
        let dir = scratch("progress");
        let spec = demo_spec(&dir);
        let store = ResultStore::open(dir.join("store")).expect("store");
        let seen = Mutex::new(Vec::new());
        let hook = |done: usize, total: usize| {
            seen.lock().expect("seen").push((done, total));
        };
        let out = run_sweep(&spec, &store, 3, &CancelFlag::new(), Some(&hook)).expect("sweep");
        let seen = seen.into_inner().expect("seen");
        assert_eq!(seen.len(), out.stats.computed);
        assert!(seen.iter().all(|&(_, t)| t == out.stats.unique));
        let mut counts: Vec<usize> = seen.iter().map(|&(d, _)| d).collect();
        counts.sort_unstable();
        assert_eq!(counts, (1..=out.stats.computed).collect::<Vec<_>>());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_panicking_cell_fails_alone() {
        for threads in [1, 2] {
            let out = run_guarded(
                (0..6).collect(),
                threads,
                &CancelFlag::new(),
                "cell execution panicked",
                |cell: usize| {
                    assert_ne!(cell, 2, "cell 2 panics");
                    Ok(cell * 10)
                },
            );
            let expected: Vec<_> = (0..6)
                .map(|cell| {
                    Some(if cell == 2 {
                        Err("cell execution panicked".to_owned())
                    } else {
                        Ok(cell * 10)
                    })
                })
                .collect();
            assert_eq!(out, expected, "at {threads} worker(s)");
        }
    }
}
