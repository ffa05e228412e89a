//! The experiment harness: shared code for regenerating every table of
//! the paper's evaluation.
//!
//! Each `table*` binary in `src/bin/` rebuilds the corresponding table
//! of Barrett & Zorn (PLDI'93) on our substrate: five traced workloads
//! with a training and a (larger) test input each. [`build_suite`]
//! produces the trace pairs; the binaries derive profiles, train
//! predictors, replay allocator simulations and print the rows.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod driver;
mod host;

pub use driver::run_jobs;
pub use host::BenchHost;

use lifepred_adaptive::EpochConfig;
use lifepred_core::{
    evaluate_profile, train, PredictionReport, Profile, ShortLivedSet, SiteConfig, TrainConfig,
    DEFAULT_THRESHOLD,
};
use lifepred_heap::{replay_arena_online, OnlineReplayReport, ReplayConfig};
use lifepred_trace::{shared_registry, Trace};
use lifepred_workloads::{all_workloads, record};

/// Traces for one workload: training input and (largest) test input.
#[derive(Debug)]
pub struct SuiteEntry {
    /// Workload name (`cfrac`, ...).
    pub name: String,
    /// One-paragraph description (Table 1).
    pub description: String,
    /// Trace of the training input.
    pub train: Trace,
    /// Trace of the test input (results are reported on this one, as
    /// the paper reports on its largest input).
    pub test: Trace,
}

/// Runs every workload on its training and test inputs.
pub fn build_suite() -> Vec<SuiteEntry> {
    all_workloads()
        .into_iter()
        .map(|w| {
            let registry = shared_registry();
            let n = w.inputs().len();
            let train = record(w.as_ref(), 0, registry.clone());
            let test = record(w.as_ref(), n - 1, registry);
            SuiteEntry {
                name: w.name().to_owned(),
                description: w.description().to_owned(),
                train,
                test,
            }
        })
        .collect()
}

/// The standard analysis bundle for one suite entry.
#[derive(Debug)]
pub struct Analysis {
    /// Profile of the test trace (self-prediction training data).
    pub self_profile: Profile,
    /// Profile of the training trace (true-prediction training data).
    pub train_profile: Profile,
    /// Database trained on the test trace itself.
    pub self_db: ShortLivedSet,
    /// Database trained on the training trace.
    pub true_db: ShortLivedSet,
    /// Self-prediction report (test-on-test).
    pub self_report: PredictionReport,
    /// True-prediction report (train database, test trace).
    pub true_report: PredictionReport,
}

/// Profiles, trains and evaluates one entry under `config`.
pub fn analyze(entry: &SuiteEntry, config: &SiteConfig) -> Analysis {
    let tc = TrainConfig::default();
    let self_profile = Profile::build(&entry.test, config, DEFAULT_THRESHOLD);
    let train_profile = Profile::build(&entry.train, config, DEFAULT_THRESHOLD);
    let self_db = train(&self_profile, &tc);
    let true_db = train(&train_profile, &tc);
    // Both databases are judged on the test trace, whose profile is
    // already at hand.
    let self_report = evaluate_profile(&self_db, &self_profile);
    let true_report = evaluate_profile(&true_db, &self_profile);
    Analysis {
        self_profile,
        train_profile,
        self_db,
        true_db,
        self_report,
        true_report,
    }
}

/// Replays the entry's **test** trace with the online learner deciding
/// every prediction as it goes — the no-training-run counterpart to
/// [`analyze`]'s true-prediction path. Where `analyze` asks "how good
/// is a predictor trained on another input?", this asks "how good is a
/// predictor that has never seen any input and corrects itself while
/// the program runs?".
pub fn analyze_online(
    entry: &SuiteEntry,
    config: &SiteConfig,
    epoch: &EpochConfig,
) -> OnlineReplayReport {
    replay_arena_online(&entry.test, config, epoch, &ReplayConfig::default())
}

/// Prints an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{h:>w$}", w = widths[i]))
        .collect();
    println!("{}", line.join("  "));
    println!("{}", "-".repeat(line.join("  ").len()));
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths[i]))
            .collect();
        println!("{}", line.join("  "));
    }
}

/// Formats a float with one decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Formats a float with two decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyze_produces_consistent_reports() {
        // One workload is enough for a smoke test; keep it the
        // cheapest (espresso's training input).
        let w = lifepred_workloads::by_name("espresso").expect("exists");
        let registry = shared_registry();
        let train_trace = record(w.as_ref(), 0, registry.clone());
        let test_trace = record(w.as_ref(), 1, registry);
        let entry = SuiteEntry {
            name: "espresso".into(),
            description: String::new(),
            train: train_trace,
            test: test_trace,
        };
        let a = analyze(&entry, &SiteConfig::default());
        // Self prediction admits only all-short sites: zero error.
        assert_eq!(a.self_report.error_bytes_pct, 0.0);
        assert!(a.self_report.predicted_short_bytes_pct > 0.0);
        // True prediction can't beat the actual short fraction.
        assert!(
            a.true_report.predicted_short_bytes_pct <= a.true_report.actual_short_bytes_pct + 1e-9
        );

        // The online learner, starting blind on the same test trace,
        // still finds predictable sites and reports its own coverage.
        let online = analyze_online(&entry, &SiteConfig::default(), &EpochConfig::default());
        assert_eq!(online.replay.total_allocs, entry.test.stats().total_objects);
        assert!(online.learner.epochs > 0);
        assert!(online.learner.sites > 0);
        assert!(
            online.learner.coverage_byte_pct() <= 100.0
                && online.learner.coverage_byte_pct() >= 0.0
        );
    }
}
