//! **lifepred** — profile-driven lifetime prediction for memory
//! allocation.
//!
//! A from-scratch Rust reproduction of *Barrett & Zorn, "Using
//! Lifetime Predictors to Improve Memory Allocation Performance"
//! (PLDI 1993)*. This facade crate re-exports the whole workspace:
//!
//! * [`trace`] — allocation tracing (shadow call-stacks, byte-clock
//!   lifetimes, replayable event streams);
//! * [`quantile`] — the P² constant-space quantile histograms the
//!   paper uses to summarize lifetime distributions (read here by
//!   Table 3's program-wide quartiles);
//! * [`core`] — the paper's contribution: allocation-site extraction
//!   (complete chains, length-N sub-chains, call-chain encryption,
//!   size-only), profiling, the all-short training rule, and
//!   self/true prediction evaluation;
//! * [`heap`] — trace-driven simulators of first-fit, BSD buckets and
//!   the lifetime-predicting arena allocator, plus the Table 9
//!   instruction cost model;
//! * [`workloads`] — traced mini-implementations of the paper's five
//!   programs (cfrac, espresso, gawk, ghost, perl);
//! * [`adaptive`] — the online self-correcting predictor: epoch-based
//!   training and misprediction-driven demotion with hysteresis;
//! * [`galloc`] — a runtime allocator over real memory, a deployable
//!   `#[global_allocator]`: per-thread magazine caches over a sharded
//!   size-class heap (no lifetime prediction: EXPERIMENTS.md measures
//!   why);
//! * [`obs`] — the metrics layer every simulator and allocator
//!   reports through (counters, gauges, histograms and epoch
//!   timelines, rendered as JSON).
//!
//! # Quickstart
//!
//! ```
//! use lifepred::core::{evaluate, train, Profile, SiteConfig, TrainConfig, DEFAULT_THRESHOLD};
//! use lifepred::trace::shared_registry;
//! use lifepred::workloads::{by_name, record};
//!
//! // Trace two runs of a workload sharing one function registry.
//! let workload = by_name("espresso").expect("built-in workload");
//! let registry = shared_registry();
//! let training = record(workload.as_ref(), 0, registry.clone());
//! let test = record(workload.as_ref(), 1, registry);
//!
//! // Train on the first input, predict on the second (true prediction).
//! let profile = Profile::build(&training, &SiteConfig::default(), DEFAULT_THRESHOLD);
//! let db = train(&profile, &TrainConfig::default());
//! let report = evaluate(&db, &test);
//! assert!(report.predicted_short_bytes_pct > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use lifepred_adaptive as adaptive;
pub use lifepred_core as core;
pub use lifepred_galloc as galloc;
pub use lifepred_heap as heap;
pub use lifepred_obs as obs;
pub use lifepred_quantile as quantile;
pub use lifepred_trace as trace;
pub use lifepred_workloads as workloads;
