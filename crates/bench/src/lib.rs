//! The experiment harness: shared code for regenerating every table of
//! the paper's evaluation.
//!
//! The `all_tables` binary in `src/bin/` rebuilds Tables 1–9 of
//! Barrett & Zorn (PLDI'93) on our substrate: five traced workloads
//! with a training and a (larger) test input each. [`build_suite`]
//! produces the trace pairs; the binaries derive profiles, train
//! predictors, replay allocator simulations and print the rows.
//!
//! It also holds the two pieces the CLI and the benches share:
//! [`simulate_file`], the one file-level simulation behind `lifepred
//! simulate`, and [`run_jobs`], the workspace's one thread pool.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod driver;
mod host;
mod sim;

pub use driver::run_jobs;
pub use host::BenchHost;
pub use sim::{simulate_file, SimOutput};

use lifepred_adaptive::{EpochConfig, LearnerStats};
use lifepred_core::{
    evaluate_profile, train, PredictionReport, Profile, ShortLivedSet, SiteConfig, TrainConfig,
    DEFAULT_THRESHOLD,
};
use lifepred_heap::{replay, ArenaConfig, ReplayPlan, ReplayReport};
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
    analyze_profiles(
        Profile::build(&entry.test, config, DEFAULT_THRESHOLD),
        Profile::build(&entry.train, config, DEFAULT_THRESHOLD),
    )
}

/// Trains and evaluates from the two profiles [`analyze`] builds, for a
/// caller that frees each trace once it is profiled.
pub fn analyze_profiles(self_profile: Profile, train_profile: Profile) -> Analysis {
    let tc = TrainConfig::default();
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

/// Replays a **test** trace with the online learner deciding
/// every prediction as it goes — the no-training-run counterpart to
/// [`analyze`]'s true-prediction path. Where `analyze` asks "how good
/// is a predictor trained on another input?", this asks "how good is a
/// predictor that has never seen any input and corrects itself while
/// the program runs?".
pub fn analyze_online(
    test: &Trace,
    config: &SiteConfig,
    epoch: &EpochConfig,
) -> (ReplayReport, LearnerStats) {
    let plan = ReplayPlan::ArenaOnline {
        sites: *config,
        epoch: *epoch,
        arena: ArenaConfig::default(),
    };
    let (report, learner) = replay(test, &plan, None).expect("a recorded trace replays");
    (report, learner.expect("an online replay has a learner"))
}

/// Formats an aligned text table: a `== title ==` line, right-aligned
/// headers, a dash rule as wide as the header line, then the rows.
pub fn format_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    fn aligned<S: AsRef<str>>(cells: &[S], widths: &[usize]) -> String {
        let cells: Vec<String> = cells
            .iter()
            .zip(widths)
            .map(|(c, &w)| format!("{:>w$}", c.as_ref()))
            .collect();
        cells.join("  ")
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let header = aligned(headers, &widths);
    let mut text = format!("== {title} ==\n{header}\n{}\n", "-".repeat(header.len()));
    for row in rows {
        text.push_str(&aligned(row, &widths));
        text.push('\n');
    }
    text
}

/// Prints [`format_table`] after a blank line.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    print!("\n{}", format_table(title, headers, rows));
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
        let (online, learner) =
            analyze_online(&entry.test, &SiteConfig::default(), &EpochConfig::default());
        assert_eq!(online.total_allocs, entry.test.stats().total_objects);
        assert!(learner.epochs > 0);
        assert!(learner.sites > 0);
        assert!(learner.coverage_byte_pct() <= 100.0 && learner.coverage_byte_pct() >= 0.0);
    }
}
