//! Executing one grid cell: train (when offline), replay, measure.
//!
//! A cell's replay is [`simulate_file`] — the same function `lifepred
//! simulate` calls for each of its trace files — so a sweep cell's
//! numbers equal the one-off CLI run with the same knobs by
//! construction. Offline cells additionally share their trained
//! database through [`TrainedDb`]: the engine trains once per
//! (trace, policy, rounding, threshold) combination and lends it to
//! every arena geometry that replays against it.

use crate::spec::{Backend, CellConfig};
use crate::store::CellResult;
use lifepred_adaptive::{EpochConfig, LearnerStats};
use lifepred_core::{
    evaluate_profile, map_sites, train, Profile, ShortLivedSet, SiteConfig, SiteKey, TrainConfig,
};
use lifepred_heap::{replay, ArenaConfig, ReplayMeta, ReplayObs, ReplayPlan, ReplayReport};
use lifepred_obs::{Registry, Snapshot};
use lifepred_tracefile::MappedTrace;
use std::time::Instant;

/// A database trained offline for one (trace, policy, rounding,
/// threshold) combination, plus the self-prediction quality the
/// training trace showed (the sweep's "Error Bytes" column).
#[derive(Debug)]
pub(crate) struct TrainedDb {
    /// The trained short-lived site set.
    pub db: ShortLivedSet,
    /// Self-prediction error bytes percentage from
    /// [`lifepred_core::evaluate`].
    pub error_bytes_pct: f64,
}

/// The axes that select a training run. Offline cells differing only
/// in arena geometry (or the ignored epoch axis) map to the same key
/// and share one [`TrainedDb`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct TrainKey {
    /// Trace file path.
    pub trace: String,
    /// Site policy.
    pub policy: lifepred_core::SitePolicy,
    /// Site-key size rounding.
    pub rounding: u32,
    /// Short-lived threshold in bytes.
    pub threshold: u64,
}

impl TrainKey {
    /// The training key of an offline cell; `None` for backends that
    /// do not train offline.
    pub fn of(cell: &CellConfig) -> Option<TrainKey> {
        (cell.backend == Backend::Offline).then(|| TrainKey {
            trace: cell.trace.clone(),
            policy: cell.policy,
            rounding: cell.rounding,
            threshold: cell.threshold,
        })
    }
}

fn file_err(path: &str, e: impl std::fmt::Display) -> String {
    format!("{path}: {e}")
}

/// Trains the database `key` describes: maps the trace, profiles its
/// streamed records, trains, and self-evaluates from the same profile.
///
/// # Errors
///
/// Returns a message for an unreadable or corrupt trace file.
pub(crate) fn train_for(key: &TrainKey) -> Result<TrainedDb, String> {
    let mapped = MappedTrace::open(&key.trace).map_err(|e| file_err(&key.trace, e))?;
    let sites = SiteConfig {
        policy: key.policy,
        size_rounding: key.rounding,
    };
    let profile = mapped
        .record_source()
        .and_then(|records| Profile::new(&sites, key.threshold).absorb(records))
        .map_err(|e| file_err(&key.trace, e))?;
    let db = train(
        &profile,
        &TrainConfig {
            threshold: key.threshold,
            ..TrainConfig::default()
        },
    );
    let error_bytes_pct = evaluate_profile(&db, &profile).error_bytes_pct;
    Ok(TrainedDb {
        db,
        error_bytes_pct,
    })
}

/// Which simulated allocator [`simulate_file`] runs, and what it
/// consults for lifetime predictions.
#[derive(Debug, Clone, Copy)]
pub enum SimBackend<'a> {
    /// First-fit, no prediction.
    FirstFit,
    /// The BSD bucket allocator, no prediction.
    Bsd,
    /// The arena allocator consulting a database trained offline.
    Arena(&'a ShortLivedSet),
    /// The arena allocator with the self-training online learner (one
    /// per trace) — no database involved.
    ArenaOnline {
        /// How allocation sites are keyed.
        sites: SiteConfig,
        /// The learner's thresholds and epoch length.
        epoch: EpochConfig,
    },
}

/// Everything one file simulation produces.
#[derive(Debug)]
pub struct SimOutput {
    /// The allocator-level replay report.
    pub report: ReplayReport,
    /// The online learner's counters ([`SimBackend::ArenaOnline`] only).
    pub learner: Option<LearnerStats>,
    /// The run's `lifepred_sim_*` (and, online, `lifepred_learner_*`)
    /// metrics, when asked for.
    pub metrics: Option<Snapshot>,
}

/// Simulates one `.lpt` file on `backend`: the unit of work behind
/// both `lifepred simulate` and a sweep cell.
///
/// One mmap (or heap read, where mapping is unavailable) serves both
/// passes, its CRCs checked once, up front: a predicting backend first
/// walks the mapped records section for one prediction (or site
/// fingerprint) per object, then the replay decodes event chunks
/// straight out of the mapped events section — the event stream is
/// never materialized. Every pass releases the mapped pages behind it,
/// and the replay keeps state for live objects only, so what still
/// grows with the trace is the pre-pass's per-object slice (1 B of
/// prediction or 8 B of fingerprint per object); the baselines have
/// none. With `want_metrics` the run records into a private registry
/// whose snapshot is returned for the caller to merge.
///
/// # Errors
///
/// Returns a `path: reason` message for a missing or corrupt trace
/// file or an invalid event sequence.
pub fn simulate_file(
    path: &str,
    backend: &SimBackend<'_>,
    arena: ArenaConfig,
    want_metrics: bool,
) -> Result<SimOutput, String> {
    let registry = want_metrics.then(Registry::new);
    let obs = registry.as_ref().map(ReplayObs::register);
    let mapped = MappedTrace::open(path).map_err(|e| file_err(path, e))?;
    let meta = ReplayMeta {
        program: mapped.name().to_owned(),
        function_calls: mapped.stats().function_calls,
    };
    let (predicted, sites);
    let plan = match *backend {
        SimBackend::FirstFit => ReplayPlan::FirstFit,
        SimBackend::Bsd => ReplayPlan::Bsd,
        SimBackend::Arena(db) => {
            predicted = mapped
                .record_source()
                .and_then(|records| map_sites(records, *db.config(), |site| db.predicts(site)))
                .map_err(|e| file_err(path, e))?;
            ReplayPlan::Arena {
                predicted: &predicted,
                arena,
            }
        }
        SimBackend::ArenaOnline {
            sites: config,
            epoch,
        } => {
            sites = mapped
                .record_source()
                .and_then(|records| map_sites(records, config, SiteKey::fingerprint))
                .map_err(|e| file_err(path, e))?;
            ReplayPlan::ArenaOnline {
                sites: &sites,
                epoch,
                arena,
            }
        }
    };
    let (report, learner) =
        replay(&meta, mapped.events(), &plan, obs.as_ref()).map_err(|e| file_err(path, e))?;
    if let (Some(registry), Some(learner)) = (&registry, &learner) {
        learner.export(registry);
    }
    Ok(SimOutput {
        report,
        learner,
        metrics: registry.map(|r| r.snapshot()),
    })
}

/// Runs one grid cell: simulates the trace on the configured backend
/// and folds the replay report into a [`CellResult`].
///
/// `trained` must be `Some` exactly when the backend is
/// [`Backend::Offline`].
///
/// # Errors
///
/// Returns a message for a missing/corrupt trace file, an invalid
/// event sequence, or a `trained`/backend mismatch.
pub(crate) fn run_cell(
    cell: &CellConfig,
    trained: Option<&TrainedDb>,
) -> Result<CellResult, String> {
    let started = Instant::now();
    let path = cell.trace.as_str();
    let backend = match (cell.backend, trained) {
        (Backend::Offline, Some(trained)) => SimBackend::Arena(&trained.db),
        (Backend::Offline, None) => {
            return Err(format!("{path}: offline cell ran without training"))
        }
        (Backend::Online, Some(_)) => {
            return Err(format!("{path}: online cell given an offline database"))
        }
        (_, Some(_)) => return Err(format!("{path}: baseline cell given a database")),
        (Backend::Online, None) => {
            let epoch = EpochConfig::for_threshold(cell.threshold, Some(cell.epoch));
            epoch.validate().map_err(|e| file_err(path, e))?;
            SimBackend::ArenaOnline {
                sites: SiteConfig {
                    policy: cell.policy,
                    size_rounding: cell.rounding,
                },
                epoch,
            }
        }
        (Backend::FirstFit, None) => SimBackend::FirstFit,
        (Backend::Bsd, None) => SimBackend::Bsd,
    };
    let sim = simulate_file(path, &backend, cell.arena, false)?;
    let report = &sim.report;
    Ok(CellResult {
        program: report.program.clone(),
        total_allocs: report.total_allocs,
        total_bytes: report.total_bytes,
        arena_allocs: report.arena_allocs,
        arena_bytes: report.arena_bytes,
        max_heap_bytes: report.max_heap_bytes,
        short_alloc_pct: report.arena_alloc_pct(),
        short_byte_pct: report.arena_byte_pct(),
        error_byte_pct: match (&sim.learner, trained) {
            (Some(learner), _) => learner.error_byte_pct(),
            (None, Some(trained)) => trained.error_bytes_pct,
            (None, None) => 0.0,
        },
        epochs: sim.learner.map_or(0, |l| l.epochs),
        elapsed_ms: started.elapsed().as_millis() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifepred_core::SitePolicy;
    use lifepred_heap::ArenaConfig;
    use std::path::PathBuf;

    /// A mostly-short-lived churn workload with a few keepers.
    fn demo_trace() -> lifepred_trace::Trace {
        let s = lifepred_trace::TraceSession::new("demo");
        let mut kept = Vec::new();
        {
            let _g = s.enter("keeper");
            for _ in 0..20 {
                kept.push(s.alloc(256));
            }
        }
        {
            let _g = s.enter("churn");
            for _ in 0..800 {
                let a = s.alloc(64);
                let b = s.alloc(32);
                s.free(a);
                s.free(b);
            }
        }
        for id in kept {
            s.free(id);
        }
        s.finish()
    }

    fn write_demo_trace(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("lifepred-sweep-cell-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tempdir");
        let path = dir.join("demo.lpt");
        lifepred_tracefile::save_trace(&path, &demo_trace()).expect("save");
        path
    }

    fn cell_for(path: &std::path::Path, backend: Backend) -> CellConfig {
        CellConfig {
            trace: path.to_string_lossy().into_owned(),
            backend,
            policy: SitePolicy::Complete,
            rounding: 4,
            threshold: 32 * 1024,
            epoch: 0,
            arena: ArenaConfig::default(),
        }
    }

    #[test]
    fn offline_cell_matches_direct_replay() {
        let path = write_demo_trace("offline");
        let cell = cell_for(&path, Backend::Offline);
        let key = TrainKey::of(&cell).expect("offline trains");
        let trained = train_for(&key).expect("train");
        let result = run_cell(&cell, Some(&trained)).expect("run");
        assert!(result.total_allocs > 0);
        assert!(
            result.short_alloc_pct > 50.0,
            "churn workload is mostly short: {result:?}"
        );
        // Self-prediction: training trace == replay trace, no errors.
        assert_eq!(result.error_byte_pct, 0.0);
        let _ = std::fs::remove_dir_all(path.parent().expect("parent"));
    }

    #[test]
    fn baseline_cell_runs_without_training() {
        let path = write_demo_trace("baseline");
        let cell = cell_for(&path, Backend::FirstFit);
        assert_eq!(TrainKey::of(&cell), None);
        let result = run_cell(&cell, None).expect("run");
        assert_eq!(result.arena_allocs, 0);
        assert!(result.max_heap_bytes > 0);
        let _ = std::fs::remove_dir_all(path.parent().expect("parent"));
    }

    #[test]
    fn online_cell_reports_epochs() {
        let path = write_demo_trace("online");
        let mut cell = cell_for(&path, Backend::Online);
        cell.threshold = 4096; // small epochs so the learner ticks
        let result = run_cell(&cell, None).expect("run");
        assert!(result.epochs > 0, "learner must tick: {result:?}");
        let _ = std::fs::remove_dir_all(path.parent().expect("parent"));
    }

    #[test]
    fn mismatched_training_is_rejected() {
        let path = write_demo_trace("mismatch");
        let offline = cell_for(&path, Backend::Offline);
        assert!(run_cell(&offline, None).is_err());
        let trained = train_for(&TrainKey::of(&offline).expect("key")).expect("train");
        let baseline = cell_for(&path, Backend::Bsd);
        assert!(run_cell(&baseline, Some(&trained)).is_err());
        let _ = std::fs::remove_dir_all(path.parent().expect("parent"));
    }
}
