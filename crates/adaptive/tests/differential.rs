//! `OnlineLearner` against the scan-everything oracle it replaced:
//! over random interleavings of every mutating call, everything a
//! caller can observe — `stats()`, `generation()`, `predicts(k)` for
//! every key — is equal after every step. The oracle is keyed by `u64`
//! site keys; the learner knows dense site ids, so the harness numbers
//! the keys in first-seen order, as a replay's `SiteExtractor` numbers
//! sites, and keeps each object's id for its free.

#[path = "support/scan_all.rs"]
mod scan_all;

use lifepred_adaptive::{EpochConfig, OnlineLearner};
use proptest::collection::vec;
use proptest::prelude::*;
use scan_all::ScanAllLearner;
use std::collections::HashMap;

/// Few enough sites that they share epochs, promote, and get caught.
const KEYS: u64 = 12;

#[derive(Debug, Clone)]
enum Op {
    /// Allocate an object and keep it for a later `Free`.
    Alloc {
        key: u64,
        size: u64,
    },
    /// Free the `pick`-th kept object (if any), through its site id.
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
    Roll,
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
        // A big allocation jumps the clock, possibly across many epochs.
        (key(), 0u64..20_000).prop_map(|(key, size)| Op::Alloc { key, size }),
        Just(Op::Roll),
    ]
}

fn config() -> impl Strategy<Value = EpochConfig> {
    (1u32..4).prop_map(|requalify_epochs| EpochConfig {
        threshold: 1024,
        epoch_bytes: 2048,
        requalify_epochs,
    })
}

/// Each key's dense site id, numbered in first-seen order.
#[derive(Default)]
struct SiteIds(HashMap<u64, u32>);

impl SiteIds {
    fn of(&mut self, key: u64) -> u32 {
        let next = self.0.len() as u32;
        *self.0.entry(key).or_insert(next)
    }

    /// `key`'s id, or the next new id if `key` has none yet.
    fn peek(&self, key: u64) -> u32 {
        self.0.get(&key).copied().unwrap_or(self.0.len() as u32)
    }
}

/// An object both learners were told about, until its `Free`.
struct Kept {
    key: u64,
    site: u32,
    size: u64,
    birth: u64,
    predicted: bool,
}

proptest! {
    #![proptest_config(ProptestConfig::with_default_cases(96))]

    #[test]
    fn learner_matches_the_scan_all_oracle(config in config(), ops in vec(op(), 1..400)) {
        let mut learner = OnlineLearner::new(config);
        let mut oracle = ScanAllLearner::new(config);
        let mut ids = SiteIds::default();
        let mut kept: Vec<Kept> = Vec::new();
        for (step, op) in ops.into_iter().enumerate() {
            match op.clone() {
                Op::Alloc { key, size } => {
                    let birth = learner.clock();
                    let site = ids.of(key);
                    let predicted = learner.record_alloc(site, size);
                    prop_assert_eq!(oracle.record_alloc(key, size), predicted, "step {}", step);
                    kept.push(Kept { key, site, size, birth, predicted });
                }
                Op::Free { pick } => {
                    if !kept.is_empty() {
                        let obj = kept.swap_remove(pick % kept.len());
                        learner.record_free(obj.site, obj.size, obj.birth, obj.predicted);
                        oracle.record_free(obj.key, obj.size, obj.birth, obj.predicted);
                    }
                }
                Op::StrayFree { key, size, age } => {
                    let birth = learner.clock().saturating_sub(age);
                    learner.record_free(ids.of(key), size, birth, false);
                    oracle.record_free(key, size, birth, false);
                }
                Op::Pin { key, size } => {
                    learner.note_pinned(ids.of(key), size);
                    oracle.note_pinned(key, size);
                }
                Op::Roll => {
                    learner.roll_epoch();
                    oracle.roll_epoch();
                }
            }
            prop_assert_eq!(learner.clock(), oracle.clock(), "step {} {:?}", step, op);
            prop_assert_eq!(learner.stats(), oracle.stats(), "step {} {:?}", step, op);
            prop_assert_eq!(learner.generation(), oracle.generation(), "step {} {:?}", step, op);
            // One key past the range: a site neither has seen.
            for key in 0..=KEYS {
                let predicts = learner.predicts(ids.peek(key));
                prop_assert_eq!(predicts, oracle.predicts(key), "step {} {:?}", step, op);
            }
        }
    }
}
