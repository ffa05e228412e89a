//! `lifepred-obs`: the workspace's unified telemetry layer.
//!
//! Barrett & Zorn's evaluation is measurement end to end — prediction
//! coverage, arena utilization, maximum heap size, instruction-count
//! cost — so every allocator, predictor, and replay path here reports
//! through one cheap pipeline instead of ad-hoc snapshot structs:
//!
//! - [`Registry`] — stable names to plain values behind one mutex.
//!   Producers count in their own memory and publish once per run,
//!   epoch or dump: [`Registry::add`] (counters), [`Registry::set`]
//!   (gauges), [`Registry::absorb`] (histograms) and
//!   [`Registry::push`] (epoch timelines).
//! - [`HistogramSnapshot`] — a fixed 64-bucket log2 histogram for
//!   object lifetimes, sizes and event latency, recorded locally and
//!   absorbed.
//! - [`EpochSample`] — one epoch boundary's predictor generation,
//!   predicted-short set size, arena utilization/fragmentation,
//!   demotions and mispredictions; a timeline keeps the newest
//!   [`DEFAULT_TIMELINE_CAPACITY`].
//! - [`Snapshot`] — what [`Registry::snapshot`] returns: it renders to
//!   JSON ([`Snapshot::to_json`], what `simulate --metrics-out` writes:
//!   the one metrics artifact), and [`Snapshot::from_json`] parses it
//!   back.
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
//! golden-file test in this crate pins the rendered schema.
//!
//! The crate is deliberately dependency-free: every other workspace
//! crate links it, so it can never pull the allocator crates back in.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hist;
pub mod json;
mod registry;
mod render;
mod timeline;

pub use hist::HistogramSnapshot;
pub use json::ParseError;
pub use registry::{Registry, Snapshot, MERGE_NAME_MISSES_METRIC};
pub use timeline::{EpochSample, DEFAULT_TIMELINE_CAPACITY};
