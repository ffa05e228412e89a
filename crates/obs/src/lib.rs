//! `lifepred-obs`: the workspace's unified telemetry layer.
//!
//! Barrett & Zorn's evaluation is measurement end to end — prediction
//! coverage, arena utilization, maximum heap size, instruction-count
//! cost — so every allocator, predictor, and replay path here reports
//! through one cheap pipeline instead of ad-hoc snapshot structs:
//!
//! - [`Counter`] / [`Gauge`] — cache-line-padded sharded cells, safe
//!   on the sharded-allocator fast path (Relaxed increments;
//!   aggregated reads).
//! - [`LogHistogram`] — fixed 64-bucket log2 histograms for object
//!   lifetimes, sizes, and (feature-gated) allocation latency.
//! - [`EpochTimeline`] — a bounded ring of per-epoch
//!   [`EpochSample`]s: predictor generation, predicted-short set
//!   size, arena utilization/fragmentation, demotions,
//!   mispredictions.
//! - [`Registry`] — stable names to live handles;
//!   [`Registry::snapshot`] produces a plain [`Snapshot`] that
//!   renders to JSON ([`Snapshot::to_json`], parse it back with
//!   [`Snapshot::from_json`]) or Prometheus text
//!   ([`Snapshot::to_prometheus`]).
//! - [`Timer`] — wall-clock latency measurement that compiles to a
//!   zero-sized no-op unless the `timing` feature is on.
//!
//! # Naming convention
//!
//! Names are `[a-z_][a-z0-9_]*`, prefixed by subsystem and suffixed by
//! kind:
//!
//! | prefix               | producer                                  |
//! |----------------------|-------------------------------------------|
//! | `lifepred_sim_`      | replay/simulation paths (`lifepred-heap`) |
//! | `lifepred_galloc_`   | global allocator (`lifepred-galloc`)      |
//! | `lifepred_learner_`  | `OnlineLearner`/`LearnerStats` export     |
//!
//! Counters end in `_total`; histograms name their unit
//! (`..._bytes`, `..._ns`); gauges name the level they report. The
//! golden-file tests in this crate pin the rendered schema.
//!
//! The crate is deliberately dependency-free: every other workspace
//! crate links it, so it can never pull the allocator crates back in.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counter;
mod hist;
pub mod json;
mod registry;
mod render;
mod timeline;
mod timer;

pub use counter::{Counter, Gauge};
pub use hist::{HistogramSnapshot, LogHistogram};
pub use json::ParseError;
pub use registry::{Registry, Snapshot, MERGE_NAME_MISSES_METRIC};
pub use timeline::{EpochSample, EpochTimeline, DEFAULT_TIMELINE_CAPACITY};
pub use timer::{Timer, TIMING_ENABLED};
