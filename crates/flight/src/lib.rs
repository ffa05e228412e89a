//! Flight recorder: low-overhead event tracing for every lifepred
//! layer.
//!
//! The metrics layer (`lifepred-obs`) answers *how much*; this crate
//! answers *when* and *why*: per-thread lock-free rings of fixed-size
//! binary events — span begin/end and instants — with
//! monotonic timestamps, drained without stopping writers and exported
//! as Chrome Trace Event JSON (Perfetto-loadable) or a deterministic
//! text summary.
//!
//! # The `flight` feature
//!
//! Event *capture* is compiled out by default. Without the feature,
//! [`span`] and [`instant`] are empty `#[inline]`
//! functions and [`Span`] is a zero-sized guard with no `Drop` — an
//! instrumented hot path costs nothing (the paired bench in
//! `bench/benches/flight.rs` holds this to ≤ 0.5 %). With the feature,
//! capture costs one recording-flag load when off, and one timestamp
//! plus one ring push when recording.
//!
//! The analysis side — the [catalogue](catalog), [`chrome`] export,
//! [`summary`] rendering — is always compiled: it consumes plain
//! [`Event`] values and is needed by the CLI whether or not the
//! binary can capture.
//!
//! # Memory-ordering contract
//!
//! See `ring.rs`: `head` is Release-published by the writer and
//! Acquire-read by the drainer (event bytes), `tail` is
//! Release-published by the drainer and Acquire-read by the writer
//! (slot reuse). DESIGN.md §14 carries the full account.
//!
//! # Examples
//!
//! ```
//! use lifepred_flight as flight;
//!
//! // Capture (a no-op unless built with the `flight` feature and
//! // recording is on):
//! {
//!     let _guard = flight::span(flight::catalog::SWEEP_JOB);
//!     flight::instant(flight::catalog::SWEEP_CACHE_HIT, 2);
//! }
//!
//! // Analysis works on plain events regardless of the feature:
//! let events = flight::drain();
//! let json = flight::chrome::chrome_trace_json(&events);
//! assert!(json.contains("traceEvents"));
//! ```

#![warn(missing_docs)]

pub mod catalog;
pub mod chrome;
mod event;
pub mod summary;

#[cfg(feature = "flight")]
mod recorder;
#[cfg(feature = "flight")]
mod ring;

pub use event::{Event, EventKind};

/// `true` when this build can capture events (the `flight` feature).
pub const COMPILED: bool = cfg!(feature = "flight");

#[cfg(feature = "flight")]
pub use recorder::{
    drain, dropped_events, ring_capacity, set_recording, DEFAULT_RING_EVENTS, RING_ENV,
};

/// RAII span guard: emits `SpanEnd` for its id when dropped. Created
/// by [`span`]/[`span_arg`]. Zero-sized (no `Drop` impl at all) when
/// the `flight` feature is off.
#[cfg(feature = "flight")]
#[must_use = "a span guard records its end when dropped"]
#[derive(Debug)]
pub struct Span {
    id: u16,
}

#[cfg(feature = "flight")]
impl Drop for Span {
    fn drop(&mut self) {
        recorder::emit(EventKind::SpanEnd, self.id, 0);
    }
}

/// Opens a span for `id`; the returned guard closes it on drop.
#[cfg(feature = "flight")]
#[inline]
pub fn span(id: u16) -> Span {
    recorder::emit(EventKind::SpanBegin, id, 0);
    Span { id }
}

/// Like [`span`] with a payload on the begin event (job number,
/// workload ordinal, …).
#[cfg(feature = "flight")]
#[inline]
pub fn span_arg(id: u16, arg: u64) -> Span {
    recorder::emit(EventKind::SpanBegin, id, arg);
    Span { id }
}

/// Records a point-in-time marker.
#[cfg(feature = "flight")]
#[inline]
pub fn instant(id: u16, arg: u64) {
    recorder::emit(EventKind::Instant, id, arg);
}

// --- compiled-out stubs -------------------------------------------------
//
// Same API, zero cost: every function is an empty `#[inline]` body and
// the guard is a unit struct with no Drop, so instrumented call sites
// compile to nothing.

/// RAII span guard (compiled-out stub: zero-sized, no `Drop`).
#[cfg(not(feature = "flight"))]
#[must_use = "a span guard records its end when dropped"]
#[derive(Debug)]
pub struct Span(());

/// Opens a span (compiled-out stub).
#[cfg(not(feature = "flight"))]
#[inline(always)]
pub fn span(_id: u16) -> Span {
    Span(())
}

/// Opens a span with a payload (compiled-out stub).
#[cfg(not(feature = "flight"))]
#[inline(always)]
pub fn span_arg(_id: u16, _arg: u64) -> Span {
    Span(())
}

/// Records an instant (compiled-out stub).
#[cfg(not(feature = "flight"))]
#[inline(always)]
pub fn instant(_id: u16, _arg: u64) {}

/// Turns recording on/off (compiled-out stub: ignored).
#[cfg(not(feature = "flight"))]
#[inline(always)]
pub fn set_recording(_on: bool) {}

/// Drains pending events (compiled-out stub: always empty).
#[cfg(not(feature = "flight"))]
#[inline(always)]
pub fn drain() -> Vec<Event> {
    Vec::new()
}

/// Events dropped to full rings (compiled-out stub: always 0).
#[cfg(not(feature = "flight"))]
#[inline(always)]
pub fn dropped_events() -> u64 {
    0
}

/// Per-thread ring capacity (compiled-out stub: 0 — no rings exist).
#[cfg(not(feature = "flight"))]
#[inline(always)]
pub fn ring_capacity() -> usize {
    0
}

/// Default per-thread ring capacity in events (stub mirror).
#[cfg(not(feature = "flight"))]
pub const DEFAULT_RING_EVENTS: usize = 1 << 14;

/// Environment variable overriding the ring capacity (stub mirror).
#[cfg(not(feature = "flight"))]
pub const RING_ENV: &str = "LIFEPRED_FLIGHT_RING";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stub_and_real_api_share_a_shape() {
        // Compiles under both feature states; behavior asserted per
        // state.
        {
            let _guard = span(catalog::SWEEP_JOB);
            instant(catalog::SWEEP_CACHE_HIT, 1);
        }
        if !COMPILED {
            set_recording(true);
            instant(catalog::SWEEP_CACHE_HIT, 2);
            assert!(drain().is_empty(), "stub recording can never turn on");
            assert_eq!(dropped_events(), 0);
            assert_eq!(ring_capacity(), 0);
            assert_eq!(std::mem::size_of::<Span>(), 0);
            assert!(!std::mem::needs_drop::<Span>());
        }
    }
}
