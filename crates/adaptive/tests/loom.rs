//! Loom tests for the `SharedPredictor` publish protocol and the
//! epoch-tick CAS:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p lifepred-adaptive --features loom-test
//! ```
//!
//! With the vendored loom stub this is a many-schedule stress run with
//! yield perturbation at every atomic op; pointing the workspace's
//! `loom` dependency at the real crate makes the same tests exhaustive
//! (see vendor/loom/src/lib.rs).
#![cfg(all(loom, feature = "loom-test"))]

use lifepred_adaptive::{EpochConfig, SharedPredictor};
use loom::sync::atomic::{AtomicU64, Ordering};
use loom::sync::{Arc, Mutex};
use loom::thread;
use std::collections::HashMap;

fn tiny() -> EpochConfig {
    EpochConfig {
        threshold: 1024,
        epoch_bytes: 2048,
        ..EpochConfig::default()
    }
}

/// Promotes `key` to predicted-short: repeated on-time frees.
fn promote(p: &SharedPredictor, key: u64) {
    p.with_learner(|l| {
        for _ in 0..64 {
            let birth = l.clock();
            let pr = l.record_alloc(key, 64);
            l.record_free(key, 64, birth, pr);
        }
    });
}

/// A reader can never pair a newer generation with an older table, and
/// refresh_if_stale(g) == None must mean the published generation is
/// still g. The predicted set only grows in this scenario, so each
/// refreshed snapshot must be a superset of the previous one.
#[test]
fn generation_and_snapshot_stay_coherent() {
    loom::model(|| {
        let p = Arc::new(SharedPredictor::new(tiny()));
        let writer = {
            let p = Arc::clone(&p);
            thread::spawn(move || {
                promote(&p, 7);
                promote(&p, 9);
            })
        };
        let reader = {
            let p = Arc::clone(&p);
            thread::spawn(move || {
                let (mut generation, mut table) = p.table();
                for _ in 0..8 {
                    match p.refresh_if_stale(generation) {
                        Some((g, t)) => {
                            // Pair-first publication means the fast
                            // check may report "stale" while the cache
                            // is already current (spurious refresh,
                            // same generation) — but a refresh must
                            // never hand back an *older* pair.
                            assert!(
                                g >= generation,
                                "refresh went backwards: {generation} -> {g}"
                            );
                            assert!(
                                table.iter().all(|k| t.contains(k)),
                                "newer generation {g} lost keys the older table had"
                            );
                            generation = g;
                            table = t;
                        }
                        // None means the published generation matched
                        // the cache at the moment of the load; any
                        // probe after that races the writer, so the
                        // "None really was current" check lives in the
                        // quiescent asserts below.
                        None => thread::yield_now(),
                    }
                }
            })
        };
        writer.join().expect("writer");
        reader.join().expect("reader");
        // Quiescent state: the final pair carries both promotions and
        // reports itself as current.
        let (g, t) = p.table();
        assert!(t.contains(&7) && t.contains(&9), "final table {t:?}");
        assert!(p.refresh_if_stale(g).is_none());
    });
}

/// Replica of the epoch-tick claim protocol in galloc's
/// `Inner::flush_clock` (crates/galloc/src/inner.rs): threads race an
/// AcqRel compare_exchange on the due boundary; for every due value
/// that is ever claimed, exactly one thread may win the tick.
#[test]
fn epoch_tick_cas_elects_exactly_one_winner_per_due_value() {
    const EPOCH: u64 = 100;
    loom::model(|| {
        let clock = Arc::new(AtomicU64::new(0));
        let next_epoch = Arc::new(AtomicU64::new(EPOCH));
        let winners: Arc<Mutex<HashMap<u64, u32>>> = Arc::new(Mutex::new(HashMap::new()));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let clock = Arc::clone(&clock);
                let next_epoch = Arc::clone(&next_epoch);
                let winners = Arc::clone(&winners);
                thread::spawn(move || {
                    for _ in 0..2 {
                        clock.fetch_add(EPOCH, Ordering::Relaxed);
                        let now = clock.load(Ordering::Relaxed);
                        let due = next_epoch.load(Ordering::Relaxed);
                        if now < due {
                            continue;
                        }
                        if next_epoch
                            .compare_exchange(
                                due,
                                now.saturating_add(EPOCH),
                                Ordering::AcqRel,
                                Ordering::Relaxed,
                            )
                            .is_ok()
                        {
                            *winners.lock().unwrap().entry(due).or_insert(0) += 1;
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("ticker");
        }
        let winners = winners.lock().unwrap();
        assert!(!winners.is_empty(), "at least one tick must fire");
        for (due, count) in winners.iter() {
            assert_eq!(*count, 1, "due value {due} was claimed {count} times");
        }
        // The boundary only ever moves forward, past the final clock.
        assert!(next_epoch.load(Ordering::Relaxed) > clock.load(Ordering::Relaxed) - EPOCH);
    });
}
