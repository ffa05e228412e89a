//! `OnlineLearner` against the scan-everything oracle it replaced:
//! over random interleavings of every mutating call, everything a
//! caller can observe — `stats()`, `generation()`, `snapshot()`,
//! `predicts(k)` — is equal after every step. The learner is driven the
//! way an online replay drives it (a site row kept per object) and
//! through its keyed calls; the oracle only has keys.

#[path = "support/scan_all.rs"]
mod scan_all;

use lifepred_adaptive::{EpochAgg, EpochConfig, OnlineLearner};
use proptest::collection::vec;
use proptest::prelude::*;
use scan_all::ScanAllLearner;

/// Few enough sites that they share epochs, promote, and get caught.
const KEYS: u64 = 12;

#[derive(Debug, Clone)]
enum Op {
    /// Allocate an object and keep it for a later `Free`.
    Alloc {
        key: u64,
        size: u64,
    },
    /// Free the `pick`-th kept object (if any), through its site row.
    Free {
        pick: usize,
    },
    /// A free the learner saw no allocation for, `age` bytes old.
    StrayFree {
        key: u64,
        size: u64,
        age: u64,
    },
    Pin {
        key: u64,
        size: u64,
    },
    Absorb {
        key: u64,
        agg: EpochAgg,
    },
    /// Jump the clock, possibly across many epochs.
    Advance {
        by: u64,
    },
    Roll,
}

fn agg() -> impl Strategy<Value = EpochAgg> {
    (
        0u64..4,
        0u64..4,
        0u64..3,
        vec(0u64..3000, 0..4),
        any::<bool>(),
    )
        .prop_map(|(allocs, frees, long_frees, samples, allocs_only)| {
            let mut agg = EpochAgg::default();
            for _ in 0..allocs {
                agg.on_alloc(64, false);
            }
            if !allocs_only {
                agg.frees = frees + long_frees;
                agg.long_frees = long_frees;
                agg.max_lifetime = samples.iter().copied().max().unwrap_or(0);
                agg.samples = samples;
            }
            agg
        })
}

fn op() -> impl Strategy<Value = Op> {
    let key = || 0..KEYS;
    let size = || 1u64..600;
    prop_oneof![
        (key(), size()).prop_map(|(key, size)| Op::Alloc { key, size }),
        (key(), size()).prop_map(|(key, size)| Op::Alloc { key, size }),
        (0usize..64).prop_map(|pick| Op::Free { pick }),
        (0usize..64).prop_map(|pick| Op::Free { pick }),
        (key(), size(), 0u64..3000).prop_map(|(key, size, age)| Op::StrayFree { key, size, age }),
        (key(), size()).prop_map(|(key, size)| Op::Pin { key, size }),
        (key(), agg()).prop_map(|(key, agg)| Op::Absorb { key, agg }),
        (0u64..20_000).prop_map(|by| Op::Advance { by }),
        Just(Op::Roll),
    ]
}

fn config() -> impl Strategy<Value = EpochConfig> {
    (1u32..3, 1u32..4, 1u64..4).prop_map(|(promote_epochs, requalify_epochs, min_epoch_frees)| {
        EpochConfig {
            threshold: 1024,
            epoch_bytes: 2048,
            promote_epochs,
            requalify_epochs,
            min_epoch_frees,
            tail_quantile: 0.95,
        }
    })
}

/// An object both learners were told about, until its `Free`.
struct Kept {
    key: u64,
    row: u32,
    size: u64,
    birth: u64,
    predicted: bool,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn learner_matches_the_scan_all_oracle(config in config(), ops in vec(op(), 1..400)) {
        let mut learner = OnlineLearner::new(config);
        let mut oracle = ScanAllLearner::new(config);
        let mut kept: Vec<Kept> = Vec::new();
        for (step, op) in ops.into_iter().enumerate() {
            match op.clone() {
                Op::Alloc { key, size } => {
                    let birth = learner.clock();
                    let row = learner.site_row(key);
                    let predicted = learner.record_alloc_at(row, size);
                    prop_assert_eq!(oracle.record_alloc(key, size), predicted, "step {}", step);
                    kept.push(Kept { key, row, size, birth, predicted });
                }
                Op::Free { pick } => {
                    if !kept.is_empty() {
                        let obj = kept.swap_remove(pick % kept.len());
                        learner.record_free_at(obj.row, obj.size, obj.birth, obj.predicted);
                        oracle.record_free(obj.key, obj.size, obj.birth, obj.predicted);
                    }
                }
                Op::StrayFree { key, size, age } => {
                    let birth = learner.clock().saturating_sub(age);
                    learner.record_free(key, size, birth, false);
                    oracle.record_free(key, size, birth, false);
                }
                Op::Pin { key, size } => {
                    learner.note_pinned(key, size);
                    oracle.note_pinned(key, size);
                }
                Op::Absorb { key, agg } => {
                    learner.absorb(key, &agg);
                    oracle.absorb(key, &agg);
                }
                Op::Advance { by } => {
                    let to = learner.clock() + by;
                    learner.advance_clock(to);
                    oracle.advance_clock(to);
                }
                Op::Roll => {
                    learner.roll_epoch();
                    oracle.roll_epoch();
                }
            }
            prop_assert_eq!(learner.clock(), oracle.clock(), "step {} {:?}", step, op);
            prop_assert_eq!(learner.stats(), oracle.stats(), "step {} {:?}", step, op);
            prop_assert_eq!(learner.generation(), oracle.generation(), "step {} {:?}", step, op);
            prop_assert_eq!(learner.snapshot(), oracle.snapshot(), "step {} {:?}", step, op);
            // One key past the range: a site neither has seen.
            for key in 0..=KEYS {
                prop_assert_eq!(learner.predicts(key), oracle.predicts(key), "step {} {:?}", step, op);
            }
        }
    }
}
