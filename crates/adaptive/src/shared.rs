//! Concurrency wrapper: a mutex-protected learner publishing its
//! predicted-short set through an atomically versioned snapshot.

use crate::config::EpochConfig;
use crate::learner::{LearnerStats, OnlineLearner};
use std::collections::HashSet;

// Loom builds swap the sync primitives for loom's so the publish
// protocol below runs under the stub's perturbed stress schedules; see
// tests/loom.rs and DESIGN.md §9.4.
#[cfg(all(loom, feature = "loom-test"))]
use loom::sync::atomic::{AtomicU64, Ordering};
#[cfg(all(loom, feature = "loom-test"))]
use loom::sync::{Arc, Mutex, MutexGuard};
#[cfg(not(all(loom, feature = "loom-test")))]
use std::sync::atomic::{AtomicU64, Ordering};
#[cfg(not(all(loom, feature = "loom-test")))]
use std::sync::{Arc, Mutex, MutexGuard};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Shares an [`OnlineLearner`] between threads without putting its
/// mutex on any allocation fast path.
///
/// The learner itself sits behind a mutex that is only taken at epoch
/// boundaries and on (rare) mispredictions. The predicted-short set is
/// *published*: an [`Arc`]`<`[`HashSet`]`>` snapshot plus an atomic
/// generation counter. Readers keep their own `Arc` clone and compare
/// generations with one relaxed atomic load per lookup batch — the hot
/// path never blocks on a writer.
#[derive(Debug)]
pub struct SharedPredictor {
    learner: Mutex<OnlineLearner>,
    /// Fast staleness check only; the authoritative generation lives
    /// *inside* [`Self::table`] next to its snapshot, so a reader can
    /// never pair one generation with another generation's table.
    generation: AtomicU64,
    table: Mutex<(u64, Arc<HashSet<u64>>)>,
}

impl SharedPredictor {
    /// Creates a shared predictor with an empty learner.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`EpochConfig::validate`].
    pub fn new(config: EpochConfig) -> Self {
        SharedPredictor {
            learner: Mutex::new(OnlineLearner::new(config)),
            generation: AtomicU64::new(0),
            table: Mutex::new((0, Arc::new(HashSet::new()))),
        }
    }

    /// The published generation; changes whenever the predicted-short
    /// set changes. One relaxed atomic load.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// The published snapshot together with its generation.
    ///
    /// Generation and table are read under one lock, so the pair is
    /// always consistent — a reader can never cache a new generation
    /// against an old table (which would make
    /// [`refresh_if_stale`](Self::refresh_if_stale) treat the stale
    /// snapshot as current until the *next* set change).
    pub fn table(&self) -> (u64, Arc<HashSet<u64>>) {
        let guard = lock(&self.table);
        (guard.0, Arc::clone(&guard.1))
    }

    /// Refreshes a reader's cached snapshot when stale: returns the
    /// fresh pair if the published generation differs from
    /// `cached_generation`, `None` when the cache is current.
    pub fn refresh_if_stale(&self, cached_generation: u64) -> Option<(u64, Arc<HashSet<u64>>)> {
        if self.generation() == cached_generation {
            return None;
        }
        Some(self.table())
    }

    /// Runs `f` with the learner locked, then republishes the snapshot
    /// if the predicted-short set changed.
    pub fn with_learner<R>(&self, f: impl FnOnce(&mut OnlineLearner) -> R) -> R {
        let mut learner = lock(&self.learner);
        let result = f(&mut learner);
        let generation = learner.generation();
        if generation != self.generation.load(Ordering::Acquire) {
            let snapshot = Arc::new(learner.snapshot());
            // Publish the pair first, the fast-check atomic second: a
            // reader woken by the atomic then finds (at least) this
            // generation's table under the mutex.
            *lock(&self.table) = (generation, snapshot);
            self.generation.store(generation, Ordering::Release);
        }
        result
    }

    /// Counters so far (takes the learner mutex).
    pub fn stats(&self) -> LearnerStats {
        lock(&self.learner).stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn tiny() -> EpochConfig {
        EpochConfig {
            threshold: 1024,
            epoch_bytes: 2048,
            ..EpochConfig::default()
        }
    }

    #[test]
    fn publishes_on_change_only() {
        let p = SharedPredictor::new(tiny());
        let (g0, t0) = p.table();
        assert!(t0.is_empty());
        assert!(p.refresh_if_stale(g0).is_none());
        p.with_learner(|l| {
            for _ in 0..64 {
                let birth = l.clock();
                let pr = l.record_alloc(7, 64);
                l.record_free(7, 64, birth, pr);
            }
        });
        let (g1, t1) = p.refresh_if_stale(g0).expect("set changed");
        assert!(g1 != g0);
        assert!(t1.contains(&7));
        assert!(p.refresh_if_stale(g1).is_none());
    }

    #[test]
    fn concurrent_readers_never_see_torn_state() {
        let p = Arc::new(SharedPredictor::new(tiny()));
        let writer = {
            let p = Arc::clone(&p);
            thread::spawn(move || {
                for round in 0..200u64 {
                    p.with_learner(|l| {
                        let key = round % 4;
                        for _ in 0..64 {
                            let birth = l.clock();
                            let pr = l.record_alloc(key, 64);
                            l.record_free(key, 64, birth, pr);
                        }
                    });
                }
            })
        };
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let p = Arc::clone(&p);
                thread::spawn(move || {
                    let (mut generation, mut table) = p.table();
                    for _ in 0..2000 {
                        if let Some((g, t)) = p.refresh_if_stale(generation) {
                            generation = g;
                            table = t;
                        }
                        // A snapshot is internally consistent by
                        // construction; just exercise lookups.
                        std::hint::black_box(table.contains(&1));
                    }
                })
            })
            .collect();
        writer.join().expect("writer");
        for r in readers {
            r.join().expect("reader");
        }
        assert!(p.stats().total_allocs > 0);
    }
}
