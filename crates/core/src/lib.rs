//! Lifetime prediction from allocation sites — the paper's primary
//! contribution.
//!
//! The pipeline mirrors §2–§4 of the paper:
//!
//! 1. A [`SiteConfig`] defines what an *allocation site* is: the
//!    complete (cycle-eliminated) call-chain, a length-N sub-chain,
//!    Carter's XOR *call-chain encryption*, or the object size alone —
//!    always combined with the (rounded) object size unless the
//!    size-only policy is selected.
//! 2. [`Profile::build`] scans a training [`Trace`](lifepred_trace::Trace)
//!    (or [`Profile::absorb`] any streamed records source) and
//!    accumulates per-site lifetime statistics, including a P²
//!    quantile histogram per site.
//! 3. [`train`] applies the paper's *all-short* rule — a site enters
//!    the short-lived database only if **every** object it allocated
//!    lived less than the threshold (32 KB by default) — producing a
//!    [`ShortLivedSet`].
//! 4. [`evaluate`] judges the database on a (same or different) trace
//!    and reports the Table 4/5/6 metrics: correctly
//!    predicted short-lived bytes, erroneously predicted bytes, sites
//!    used, and the fraction of heap references to predicted objects.
//!
//! # Examples
//!
//! ```
//! use lifepred_core::{evaluate, train, Profile, SiteConfig, TrainConfig};
//! use lifepred_trace::TraceSession;
//!
//! let s = TraceSession::new("demo");
//! {
//!     let _g = s.enter("short_lived_factory");
//!     for _ in 0..100 {
//!         let id = s.alloc(16);
//!         s.free(id);
//!     }
//! }
//! let trace = s.finish();
//!
//! let cfg = SiteConfig::default();
//! let profile = Profile::build(&trace, &cfg, TrainConfig::default().threshold);
//! let db = train(&profile, &TrainConfig::default());
//! let report = evaluate(&db, &trace);
//! assert!(report.predicted_short_bytes_pct > 99.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod evaluate;
mod lifetimes;
mod persist;
mod profile;
mod site;
mod train;

pub use evaluate::{evaluate, evaluate_profile, PredictionReport};
pub use lifetimes::LifetimeDistribution;
pub use profile::{Profile, SiteStats};
pub use site::{SiteConfig, SiteExtractor, SiteId, SiteKey, SitePolicy};
pub use train::{train, ShortLivedSet, TrainConfig};

/// `num` as a percentage of `den`; 0 of nothing is 0.
fn pct(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        100.0 * num as f64 / den as f64
    }
}

/// The paper's short-lived threshold: 32 kilobytes of allocation.
pub const DEFAULT_THRESHOLD: u64 = 32 * 1024;
