//! The one file-level simulation: open a `.lpt`, replay it under a
//! plan, optionally collect its metrics.

use lifepred_adaptive::LearnerStats;
use lifepred_heap::{replay, ReplayObs, ReplayPlan, ReplayReport};
use lifepred_obs::{Registry, Snapshot};
use lifepred_tracefile::MappedTrace;

fn file_err(path: &str, e: impl std::fmt::Display) -> String {
    format!("{path}: {e}")
}

/// Everything one file simulation produces.
#[derive(Debug)]
pub struct SimOutput {
    /// The allocator-level replay report.
    pub report: ReplayReport,
    /// The online learner's counters ([`ReplayPlan::ArenaOnline`] only).
    pub learner: Option<LearnerStats>,
    /// The run's `lifepred_sim_*` (and, online, `lifepred_learner_*`)
    /// metrics, when asked for.
    pub metrics: Option<Snapshot>,
}

/// Simulates one `.lpt` file under `plan`: the unit of work behind
/// `lifepred simulate` and the `replay` and `obs` benches.
///
/// One mmap (or heap read, where mapping is unavailable) serves the
/// whole [`replay`], its CRCs checked once, up front; the trace is never
/// materialized. With `want_metrics` the run records into a private
/// registry whose snapshot is returned for the caller to merge.
///
/// # Errors
///
/// Returns a `path: reason` message for a missing or corrupt trace
/// file or an invalid event sequence.
pub fn simulate_file(
    path: &str,
    plan: &ReplayPlan<'_>,
    want_metrics: bool,
) -> Result<SimOutput, String> {
    let registry = want_metrics.then(Registry::new);
    let obs = registry.as_ref().map(ReplayObs::register);
    let mapped = MappedTrace::open(path).map_err(|e| file_err(path, e))?;
    let (report, learner) = replay(&mapped, plan, obs.as_ref()).map_err(|e| file_err(path, e))?;
    if let (Some(registry), Some(learner)) = (&registry, &learner) {
        learner.export(registry);
    }
    Ok(SimOutput {
        report,
        learner,
        metrics: registry.map(|r| r.snapshot()),
    })
}
