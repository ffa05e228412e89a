//! Simulated storage allocators and the trace-replay harness.
//!
//! The paper evaluates lifetime prediction by *trace-driven
//! simulation*: allocation event streams are fed to deterministic
//! models of three allocators —
//!
//! * [`FirstFit`]: Knuth's first-fit with boundary tags, a roving
//!   pointer, splitting and immediate coalescing, grown in 8 KB pages
//!   (the paper's baseline and the arena allocator's general heap);
//! * [`BsdMalloc`]: the 4.2BSD power-of-two bucket allocator (the CPU
//!   baseline of Table 9);
//! * [`ArenaAllocator`]: Hanson-style short-lived arenas (16 × 4 KB by
//!   default) driven by a trained
//!   [`ShortLivedSet`](lifepred_core::ShortLivedSet), falling back to
//!   first-fit for everything else.
//!
//! Allocators operate on a synthetic address space — no real memory is
//! touched — so heap sizes, fragmentation and operation counts are
//! exactly reproducible. [`replay`] drives any source of event
//! batches — a whole [`Trace`](lifepred_trace::Trace), the chunk
//! decoder of a trace file — through the allocator a [`ReplayPlan`]
//! names, optionally recording `lifepred_sim_*` metrics into a
//! [`ReplayObs`], and produces the numbers behind Tables 7 and 8
//! ([`replay_firstfit`] & co. are its shorthands for an in-memory
//! trace); the cost functions
//! ([`firstfit_costs`], [`bsd_costs`], [`arena_costs`]) convert
//! operation counts into the per-operation instruction estimates of
//! Table 9.
//!
//! # Examples
//!
//! ```
//! use lifepred_heap::{replay_firstfit, ReplayConfig};
//! use lifepred_trace::TraceSession;
//!
//! let s = TraceSession::new("demo");
//! let id = s.alloc(100);
//! s.free(id);
//! let trace = s.finish();
//! let report = replay_firstfit(&trace, &ReplayConfig::default());
//! assert!(report.max_heap_bytes >= 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod bsd;
mod costmodel;
mod counts;
mod firstfit;
mod hash;
mod index;
mod live;
mod obs;
mod predict;
mod replay;

pub use arena::{ArenaAllocator, ArenaConfig};
pub use bsd::BsdMalloc;
pub use costmodel::{arena_costs, bsd_costs, firstfit_costs, CostReport, PredictorKind};
pub use counts::OpCounts;
pub use firstfit::FirstFit;
pub use obs::ReplayObs;
pub use replay::{
    prediction_bitmap, replay, replay_arena, replay_arena_online, replay_bsd, replay_firstfit,
    site_fingerprints, OnlineReplayReport, ReplayConfig, ReplayMeta, ReplayPlan, ReplayReport,
    ReplayStreamError,
};
// Linked only by the frozen `benchmark/src/layers.rs`; see `replay.rs`.
#[doc(hidden)]
pub use replay::{
    replay_arena_chunks, replay_arena_online_chunks, replay_bsd_chunks, replay_firstfit_chunks,
    replay_firstfit_chunks_observed,
};

/// A simulated heap address (bytes from the bottom of the simulated
/// address space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Addr(pub u64);

impl std::fmt::Display for Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}
