//! Dynamic quantile estimation without storing observations.
//!
//! This crate implements the P² ("P-square") algorithm of Jain and
//! Chlamtac (CACM 1985), which the paper uses to summarize the lifetime
//! distribution of every allocation site in constant space:
//!
//! * [`P2Histogram`] tracks a whole equiprobable-cell histogram
//!   (`MARKERS` markers, held inline), from which any quantile can be
//!   read — this is the "quantile histogram" of the paper's Table 3.
//!   Its update is the crate's one implementation of P².
//! * [`P2Quantile`] tracks a single quantile `p`: five markers on that
//!   same update, with Jain & Chlamtac's desired positions for `p`.
//! * [`ExactQuantiles`] is a store-everything oracle used by tests and
//!   by experiments that want to quantify the P² approximation error
//!   (the paper itself notes GHOST's 75% quantile is over-approximated).
//!
//! # Examples
//!
//! ```
//! use lifepred_quantile::P2Histogram;
//!
//! let mut hist = P2Histogram::quartiles();
//! for x in 0..1000 {
//!     hist.observe(x as f64);
//! }
//! let median = hist.quantile(0.5);
//! assert!((median - 500.0).abs() < 50.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod exact;
mod histogram;
mod p2;

pub use exact::ExactQuantiles;
pub use histogram::P2Histogram;
pub use p2::P2Quantile;
