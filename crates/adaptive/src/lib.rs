//! **Online self-correcting lifetime prediction** — the paper's "can
//! the predictor adapt?" future work, built as a subsystem.
//!
//! Barrett & Zorn train their predictor offline and freeze it. This
//! crate trains *while the program runs*, in epochs on the byte clock:
//!
//! 1. Per-site streaming lifetime statistics — free counts, long-free
//!    counts and a P² tail-quantile estimate
//!    ([`lifepred_quantile::P2Quantile`]) over the current clean
//!    streak.
//! 2. The paper's *all-short* rule applied **per epoch**: a site is
//!    promoted to predicted-short only after `promote_epochs` active
//!    epochs in which every free died under the threshold.
//! 3. A **misprediction feedback loop**: a predicted-short object that
//!    outlives the threshold — observed at free time, or reported via
//!    [`OnlineLearner::note_pinned`] while still live (it pins an
//!    arena) — demotes its site on the spot. Demoted sites re-qualify
//!    only after `requalify_epochs` consecutive clean epochs of
//!    hysteresis.
//!
//! [`OnlineLearner`] is single-threaded, driven by the trace-replay
//! simulator (`lifepred-heap`) and the CLI.
//!
//! # Examples
//!
//! ```
//! use lifepred_adaptive::{EpochConfig, OnlineLearner};
//!
//! let mut learner = OnlineLearner::new(EpochConfig::default());
//! let site = 42u64;
//!
//! // Phase 1: the site allocates short-lived objects and is learned.
//! while learner.epochs() < 2 {
//!     let birth = learner.clock();
//!     let predicted = learner.record_alloc(site, 64);
//!     learner.record_free(site, 64, birth, predicted);
//! }
//! assert!(learner.predicts(site));
//!
//! // Phase 2: behaviour drifts — one long-lived object demotes the
//! // site immediately.
//! let birth = learner.clock();
//! let predicted = learner.record_alloc(site, 64);
//! while learner.clock() - birth < learner.config().threshold {
//!     learner.record_alloc(999, 4096); // unrelated traffic ages it
//! }
//! learner.record_free(site, 64, birth, predicted);
//! assert!(!learner.predicts(site));
//! assert_eq!(learner.stats().mispredictions, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod learner;

pub use config::EpochConfig;
pub use learner::{LearnerStats, OnlineLearner};
