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
//!   baseline of Table 9), whose `free` is handed the object's size;
//! * [`ArenaAllocator`]: Hanson-style short-lived arenas (16 × 4 KB by
//!   default) driven by a trained
//!   [`ShortLivedSet`](lifepred_core::ShortLivedSet), falling back to
//!   first-fit for everything else.
//!
//! Allocators operate on a synthetic address space — no real memory is
//! touched — so heap sizes, fragmentation and operation counts are
//! exactly reproducible. [`replay`] is the one way to run them: it
//! reads a trace — an in-memory [`Trace`](lifepred_trace::Trace) or a
//! mapped trace file, any [`TraceSource`](lifepred_trace::TraceSource)
//! — through the allocator a [`ReplayPlan`] names, the plan naming the
//! trained database (or the online learner's site keying) a predicting
//! allocator consults; it refuses a double free before any heap sees
//! it. Optionally recording `lifepred_sim_*` metrics
//! into a [`ReplayObs`], it produces the numbers behind Tables 7 and 8;
//! the cost functions ([`firstfit_costs`], [`bsd_costs`],
//! [`arena_costs`]) convert operation counts into the per-operation
//! instruction estimates of Table 9.
//!
//! # Examples
//!
//! ```
//! use lifepred_heap::{replay, ReplayPlan};
//! use lifepred_trace::TraceSession;
//!
//! let s = TraceSession::new("demo");
//! let id = s.alloc(100);
//! s.free(id);
//! let trace = s.finish();
//! let (report, learner) = replay(&trace, &ReplayPlan::FirstFit, None).unwrap();
//! assert!(report.max_heap_bytes >= 100);
//! assert!(learner.is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod bsd;
mod costmodel;
mod counts;
mod firstfit;
#[doc(hidden)]
pub mod frozen;
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
pub use replay::{replay, ReplayPlan, ReplayReport, ReplayStreamError};
// Linked only by the frozen benchmark, at these paths; see `frozen.rs`.
#[doc(hidden)]
pub use frozen::*;

/// A simulated heap address (bytes from the bottom of the simulated
/// address space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Addr(pub u64);

impl std::fmt::Display for Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}
