//! Evaluating a trained predictor against a trace (Tables 4–6).

use crate::pct;
use crate::profile::Profile;
use crate::site::SitePolicy;
use crate::train::ShortLivedSet;
use lifepred_trace::Trace;

/// The prediction-quality metrics of Tables 4, 5 and 6.
///
/// *Self prediction* evaluates a database against the trace it was
/// trained on; *true prediction* evaluates against a different input's
/// trace — the function is the same, only the caller's choice of trace
/// differs.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictionReport {
    /// Name of the evaluated program/trace.
    pub program: String,
    /// Site policy used for extraction.
    pub policy: SitePolicy,
    /// Distinct allocation sites in the evaluated trace.
    pub total_sites: u64,
    /// Percentage of bytes that really were short-lived ("Actual").
    pub actual_short_bytes_pct: f64,
    /// Database sites that matched at least one allocation here
    /// ("Sites Used").
    pub sites_used: u64,
    /// Percentage of total bytes *correctly* predicted short-lived
    /// ("Predicted Short-lived Bytes").
    pub predicted_short_bytes_pct: f64,
    /// Percentage of total bytes predicted short-lived that were in
    /// fact long-lived ("Error Bytes").
    pub error_bytes_pct: f64,
    /// Percentage of total objects predicted short-lived (correctly or
    /// not).
    pub predicted_objects_pct: f64,
    /// Percentage of heap references going to predicted objects
    /// (Table 6's "New Ref").
    pub new_ref_pct: f64,
    /// Total bytes in the evaluated trace.
    pub total_bytes: u64,
    /// Total objects in the evaluated trace.
    pub total_objects: u64,
}

/// Replays `trace` against the trained database and measures
/// prediction quality.
///
/// Every allocation record is keyed under the database's
/// [`SiteConfig`](crate::SiteConfig); a predicted object is one whose
/// key is in the database. Correctness is judged by the object's true
/// lifetime versus the database threshold. All objects of a site share
/// its verdict, so this is [`evaluate_profile`] of the trace's profile
/// — a caller that already holds that profile should pass it instead.
///
/// # Examples
///
/// ```
/// use lifepred_core::{evaluate, train, Profile, SiteConfig, TrainConfig};
/// use lifepred_trace::TraceSession;
///
/// let s = TraceSession::new("p");
/// let id = s.alloc(8);
/// s.free(id);
/// let trace = s.finish();
/// let profile = Profile::build(&trace, &SiteConfig::default(), 32 * 1024);
/// let db = train(&profile, &TrainConfig::default());
/// let report = evaluate(&db, &trace); // self prediction
/// assert_eq!(report.error_bytes_pct, 0.0);
/// ```
pub fn evaluate(db: &ShortLivedSet, trace: &Trace) -> PredictionReport {
    evaluate_profile(db, &Profile::build(trace, db.config(), db.threshold()))
}

/// Measures `db`'s prediction quality on the trace(s) `profile` was
/// built from: the per-site sums of a profile are all [`evaluate`]
/// needs, so no record is read again.
///
/// # Panics
///
/// Panics if `profile` was built under another [`SiteConfig`](crate::SiteConfig)
/// or threshold than `db` (its keys and short counters would not be
/// the database's).
pub fn evaluate_profile(db: &ShortLivedSet, profile: &Profile) -> PredictionReport {
    assert_eq!(
        (profile.config(), profile.threshold()),
        (db.config(), db.threshold()),
        "profile and database disagree on site configuration or threshold"
    );
    let (mut sites_used, mut predicted_objects, mut predicted_refs) = (0u64, 0u64, 0u64);
    let (mut correct_bytes, mut error_bytes) = (0u64, 0u64);
    let (mut actual_short_bytes, mut total_refs) = (0u64, 0u64);
    for (key, stats) in profile.sites() {
        actual_short_bytes += stats.short_bytes;
        total_refs += stats.refs;
        if db.predicts(key) {
            sites_used += 1;
            predicted_objects += stats.objects;
            predicted_refs += stats.refs;
            correct_bytes += stats.short_bytes;
            error_bytes += stats.bytes - stats.short_bytes;
        }
    }
    let (total_bytes, total_objects) = (profile.total_bytes(), profile.total_objects());
    PredictionReport {
        program: profile.program().to_owned(),
        policy: db.config().policy,
        total_sites: profile.total_sites() as u64,
        actual_short_bytes_pct: pct(actual_short_bytes, total_bytes),
        sites_used,
        predicted_short_bytes_pct: pct(correct_bytes, total_bytes),
        error_bytes_pct: pct(error_bytes, total_bytes),
        predicted_objects_pct: pct(predicted_objects, total_objects),
        new_ref_pct: pct(predicted_refs, total_refs),
        total_bytes,
        total_objects,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::SiteConfig;
    use crate::train::{train, TrainConfig};
    use crate::DEFAULT_THRESHOLD;
    use lifepred_trace::{SharedRegistry, TraceSession};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn registry() -> SharedRegistry {
        Rc::new(RefCell::new(lifepred_trace::FunctionRegistry::new()))
    }

    /// A program whose site behaviour depends on its "input".
    fn run(reg: SharedRegistry, name: &str, long_from_shared_site: bool) -> Trace {
        let s = TraceSession::with_registry(name, reg);
        let mut kept = Vec::new();
        {
            let _g = s.enter("maybe_short");
            for _ in 0..50 {
                let id = s.alloc(16);
                s.touch(id, 5);
                if long_from_shared_site {
                    kept.push(id);
                } else {
                    s.free(id);
                }
            }
        }
        {
            let _g = s.enter("always_short");
            for _ in 0..50 {
                let id = s.alloc(32);
                s.touch(id, 3);
                s.free(id);
            }
        }
        {
            let _g = s.enter("filler");
            for _ in 0..60 {
                let id = s.alloc(1024);
                s.free(id);
            }
        }
        for id in kept {
            s.free(id);
        }
        s.finish()
    }

    #[test]
    fn self_prediction_has_no_errors() {
        let reg = registry();
        let t = run(reg, "self", false);
        let p = Profile::build(&t, &SiteConfig::default(), DEFAULT_THRESHOLD);
        let db = train(&p, &TrainConfig::default());
        let r = evaluate(&db, &t);
        assert_eq!(r.error_bytes_pct, 0.0);
        assert!(r.predicted_short_bytes_pct > 0.0);
        // With every site all-short, predicted == actual.
        assert!((r.predicted_short_bytes_pct - r.actual_short_bytes_pct).abs() < 1e-9);
    }

    #[test]
    fn true_prediction_can_err() {
        let reg = registry();
        let train_trace = run(reg.clone(), "train", false);
        let test_trace = run(reg, "test", true);
        let p = Profile::build(&train_trace, &SiteConfig::default(), DEFAULT_THRESHOLD);
        let db = train(&p, &TrainConfig::default());
        let r = evaluate(&db, &test_trace);
        // The shared site allocated long-lived objects in the test run:
        // those bytes are errors.
        assert!(r.error_bytes_pct > 0.0, "report: {r:?}");
        // But the always-short site still predicts correctly.
        assert!(r.predicted_short_bytes_pct > 0.0);
    }

    #[test]
    fn new_ref_pct_counts_predicted_refs() {
        let reg = registry();
        let t = run(reg, "refs", false);
        let p = Profile::build(&t, &SiteConfig::default(), DEFAULT_THRESHOLD);
        let db = train(&p, &TrainConfig::default());
        let r = evaluate(&db, &t);
        // All touched objects came from predicted sites.
        assert!((r.new_ref_pct - 100.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "disagree")]
    fn a_profile_under_another_config_is_refused() {
        let t = run(registry(), "other", false);
        let p = Profile::build(&t, &SiteConfig::size_only(), DEFAULT_THRESHOLD);
        let db = ShortLivedSet::empty(SiteConfig::default(), DEFAULT_THRESHOLD);
        let _ = evaluate_profile(&db, &p);
    }

    #[test]
    fn empty_database_predicts_nothing() {
        let reg = registry();
        let t = run(reg, "none", false);
        let db = ShortLivedSet::empty(SiteConfig::default(), DEFAULT_THRESHOLD);
        let r = evaluate(&db, &t);
        assert_eq!(r.predicted_short_bytes_pct, 0.0);
        assert_eq!(r.sites_used, 0);
        assert_eq!(r.new_ref_pct, 0.0);
        assert!(r.total_sites > 0);
    }

    #[test]
    fn sites_used_counts_matching_sites_only() {
        let reg = registry();
        let train_trace = run(reg.clone(), "train", false);
        let p = Profile::build(&train_trace, &SiteConfig::default(), DEFAULT_THRESHOLD);
        let db = train(&p, &TrainConfig::default());
        // Evaluate against a run that never calls `always_short`.
        let s = TraceSession::with_registry("partial", reg);
        {
            let _g = s.enter("maybe_short");
            for _ in 0..10 {
                let id = s.alloc(16);
                s.free(id);
            }
        }
        let t2 = s.finish();
        let r = evaluate(&db, &t2);
        assert!(r.sites_used < db.len() as u64);
        assert!(r.sites_used >= 1);
    }
}
