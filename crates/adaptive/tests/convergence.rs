//! Behavioural tests for the online learner's drift handling: a site
//! whose lifetime behaviour flips long → short → long must be tracked
//! within the documented epoch bounds.

use lifepred_adaptive::{EpochConfig, OnlineLearner};

fn cfg() -> EpochConfig {
    EpochConfig {
        threshold: 1024,
        epoch_bytes: 2048,
        promote_epochs: 1,
        requalify_epochs: 3,
        min_epoch_frees: 1,
        tail_quantile: 0.95,
    }
}

// Dense site ids, in the order every test first uses them.
const SITE: u32 = 0;
const NOISE: u32 = 1;

/// One short-lived allocation at SITE plus background noise traffic.
fn short_op(l: &mut OnlineLearner) {
    let birth = l.clock();
    let predicted = l.record_alloc(SITE, 64);
    l.record_free(SITE, 64, birth, predicted);
    let nb = l.clock();
    let np = l.record_alloc(NOISE, 64);
    l.record_free(NOISE, 64, nb, np);
}

/// One long-lived allocation at SITE: aged past the threshold by noise
/// traffic before being freed.
fn long_op(l: &mut OnlineLearner) {
    let birth = l.clock();
    let predicted = l.record_alloc(SITE, 64);
    let threshold = l.config().threshold;
    while l.clock() - birth < threshold {
        let nb = l.clock();
        let np = l.record_alloc(NOISE, 128);
        l.record_free(NOISE, 128, nb, np);
    }
    l.record_free(SITE, 64, birth, predicted);
}

#[test]
fn drifting_site_converges_within_documented_bounds() {
    let cfg = cfg();
    let mut l = OnlineLearner::new(cfg);

    // Phase 1: long-lived behaviour. The site must never be predicted.
    for _ in 0..8 {
        long_op(&mut l);
        assert!(!l.predicts(SITE), "long-lived site predicted short");
    }
    assert_eq!(l.stats().mispredictions, 0);

    // Phase 2: behaviour flips to short-lived. Promotion must happen
    // once the site shows `promote_epochs` clean epochs — bound it by
    // promote_epochs + 2 epochs of slack for the phase boundary (the
    // flip lands mid-epoch and the last long free dirties that epoch).
    let flip_epoch = l.epochs();
    let mut promoted_at = None;
    for _ in 0..100_000 {
        short_op(&mut l);
        if l.predicts(SITE) {
            promoted_at = Some(l.epochs());
            break;
        }
    }
    let promoted_at = promoted_at.expect("short-lived site must be promoted");
    assert!(
        promoted_at - flip_epoch <= u64::from(cfg.promote_epochs) + 2,
        "promotion took {} epochs (bound {})",
        promoted_at - flip_epoch,
        cfg.promote_epochs + 2
    );

    // Phase 3: behaviour flips back to long-lived. Demotion is
    // immediate — the first long free at the predicted site demotes it
    // within the same epoch, before any epoch boundary.
    let demote_epoch = l.epochs();
    long_op(&mut l);
    assert!(!l.predicts(SITE), "demotion must be immediate");
    let s = l.stats();
    assert!(s.mispredictions >= 1);
    assert!(s.demotions >= 1);
    assert!(
        l.epochs() - demote_epoch <= (cfg.threshold / cfg.epoch_bytes) + 1,
        "demotion crossed more epochs than the object's own lifetime"
    );

    // Phase 4: short again — requalification needs the full hysteresis.
    let requalify_start = l.epochs();
    let mut requalified_at = None;
    for _ in 0..100_000 {
        short_op(&mut l);
        if l.predicts(SITE) {
            requalified_at = Some(l.epochs());
            break;
        }
    }
    let requalified_at = requalified_at.expect("site must requalify");
    assert!(
        requalified_at - requalify_start >= u64::from(cfg.requalify_epochs),
        "requalified after only {} epochs, hysteresis is {}",
        requalified_at - requalify_start,
        cfg.requalify_epochs
    );
    assert!(
        requalified_at - requalify_start <= u64::from(cfg.requalify_epochs) + 2,
        "requalification took {} epochs (bound {})",
        requalified_at - requalify_start,
        cfg.requalify_epochs + 2
    );
}

#[test]
fn stable_short_site_stays_predicted_under_heavy_churn() {
    let mut l = OnlineLearner::new(cfg());
    for _ in 0..50_000 {
        short_op(&mut l);
    }
    assert!(l.predicts(SITE));
    let s = l.stats();
    assert_eq!(s.mispredictions, 0);
    assert!(s.epochs > 100);
    // Coverage approaches 100% once promoted.
    assert!(s.coverage_alloc_pct() > 95.0, "{}", s.coverage_alloc_pct());
}

#[test]
fn mixed_sites_are_separated() {
    let mut l = OnlineLearner::new(cfg());
    for _ in 0..2_000 {
        short_op(&mut l); // SITE and NOISE short-lived
    }
    // A third site allocates only long-lived objects.
    const HOARDER: u32 = 2;
    for _ in 0..4 {
        let birth = l.clock();
        let p = l.record_alloc(HOARDER, 256);
        for _ in 0..40 {
            short_op(&mut l);
        }
        l.record_free(HOARDER, 256, birth, p);
    }
    assert!(l.predicts(SITE));
    assert!(l.predicts(NOISE));
    assert!(!l.predicts(HOARDER));
}
