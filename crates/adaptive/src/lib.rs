//! **Online self-correcting lifetime prediction** — the paper's "can
//! the predictor adapt?" future work, built as a subsystem.
//!
//! Barrett & Zorn train their predictor offline and freeze it. This
//! crate trains *while the program runs*, in epochs on the byte clock:
//!
//! 1. Per-site state of the current epoch only: whether the site was
//!    active (freed an object or was reported pinned) and whether any
//!    lifetime reached the threshold.
//! 2. The paper's *all-short* rule applied **per epoch**: a site is
//!    promoted to predicted-short after one active epoch in which
//!    every free died under the threshold. Every lifetime since the
//!    site's last dirty epoch is then under the threshold, so no
//!    further summary of them (a P² tail estimate, say) could refuse.
//! 3. A **misprediction feedback loop**: a predicted-short object that
//!    outlives the threshold — observed at free time, or reported via
//!    [`OnlineLearner::note_pinned`] while still live (it pins an
//!    arena) — demotes its site on the spot. Demoted sites re-qualify
//!    only after `requalify_epochs` consecutive clean epochs of
//!    hysteresis.
//!
//! [`OnlineLearner`] is single-threaded, driven by the trace-replay
//! simulator (`lifepred-heap`) and the CLI, and knows sites by the
//! dense ids `lifepred_core::SiteExtractor` hands out.
//!
//! # Examples
//!
//! ```
//! use lifepred_adaptive::{EpochConfig, OnlineLearner};
//!
//! let mut learner = OnlineLearner::new(EpochConfig::default());
//! let (site, other) = (0, 1);
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
//!     learner.record_alloc(other, 4096); // unrelated traffic ages it
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
