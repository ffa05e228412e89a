//! The recording core: global on/off switch, per-thread ring
//! registration, and the drain path.
//!
//! Only compiled with the `flight` feature; `lib.rs` supplies
//! zero-cost stubs otherwise.
//!
//! Re-entrancy: emitting an event can allocate exactly once per
//! thread (creating its ring). If the process's global allocator is
//! itself instrumented (galloc), that allocation re-enters `emit`;
//! the per-thread `EMITTING` flag makes the inner call a no-op, so
//! ring creation cannot recurse. Rings are registered on a lock-free
//! push-only list and intentionally leaked — one ring per thread that
//! ever recorded, alive for the process, so the drainer never races a
//! thread teardown.

use crate::event::{Event, EventKind};
use crate::ring::Ring;
use std::cell::Cell;
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Default ring capacity in events (24 B each → 384 KiB per thread).
pub const DEFAULT_RING_EVENTS: usize = 1 << 14;

/// Environment variable overriding the per-thread ring capacity (in
/// events; rounded up to a power of two). Read once, at first use.
pub const RING_ENV: &str = "LIFEPRED_FLIGHT_RING";

/// Master switch. Release/Acquire so a drainer that observes the stop
/// also observes every event published before it.
static RECORDING: AtomicBool = AtomicBool::new(false);

/// Head of the lock-free ring list (push-only; nodes leak).
static RINGS: AtomicPtr<Node> = AtomicPtr::new(ptr::null_mut());

/// Monotonic thread numbering for `Event::tid` (0 = unassigned).
static NEXT_TID: AtomicU32 = AtomicU32::new(1);

/// Serializes drainers: each ring is SPSC, so two concurrent drains
/// would race each other (not the writers).
static DRAIN: Mutex<()> = Mutex::new(());

/// Timestamp epoch, fixed at first use.
static EPOCH: OnceLock<Instant> = OnceLock::new();

struct Node {
    ring: &'static Ring,
    next: *mut Node,
}

thread_local! {
    /// This thread's ring, created on first emit.
    static RING: Cell<Option<&'static Ring>> = const { Cell::new(None) };
    /// Re-entrancy latch: true while an emit is in flight on this
    /// thread (see module docs).
    static EMITTING: Cell<bool> = const { Cell::new(false) };
}

/// Nanoseconds since the recorder epoch.
#[inline]
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Is recording currently on?
#[inline]
pub(crate) fn recording() -> bool {
    RECORDING.load(Ordering::Acquire)
}

/// Turns recording on or off. Pins the timestamp epoch on first start
/// so every trace starts near t=0.
pub fn set_recording(on: bool) {
    if on {
        EPOCH.get_or_init(Instant::now);
    }
    RECORDING.store(on, Ordering::Release);
}

/// The configured per-thread ring capacity.
pub fn ring_capacity() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        std::env::var(RING_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(DEFAULT_RING_EVENTS)
    })
}

fn register(ring: &'static Ring) {
    let node = Box::into_raw(Box::new(Node {
        ring,
        next: ptr::null_mut(),
    }));
    let mut head = RINGS.load(Ordering::Acquire);
    loop {
        // SAFETY: `node` came from Box::into_raw above and is not yet
        // shared; writing its link before the publishing CAS is the
        // standard Treiber push.
        unsafe { (*node).next = head };
        match RINGS.compare_exchange_weak(head, node, Ordering::Release, Ordering::Acquire) {
            Ok(_) => return,
            Err(current) => head = current,
        }
    }
}

fn for_each_ring(mut f: impl FnMut(&'static Ring)) {
    // Acquire pairs with register's Release CAS: the node's fields
    // (and the ring it points to) are fully initialized.
    let mut cursor = RINGS.load(Ordering::Acquire);
    while !cursor.is_null() {
        // SAFETY: nodes are leaked on registration and never freed or
        // unlinked, so a non-null cursor always points to a live Node.
        let node = unsafe { &*cursor };
        f(node.ring);
        cursor = node.next;
    }
}

/// Emits one event on the calling thread's ring.
#[inline]
pub(crate) fn emit(kind: EventKind, id: u16, arg: u64) {
    if !recording() {
        return;
    }
    let ts_ns = now_ns();
    // try_with + latch: a teardown-phase or re-entrant emit silently
    // drops the event instead of recursing or aborting.
    let _ = EMITTING.try_with(|latch| {
        if latch.get() {
            return;
        }
        latch.set(true);
        let _ = RING.try_with(|cell| {
            let ring = match cell.get() {
                Some(ring) => ring,
                None => {
                    // First event on this thread: build and leak its
                    // ring. The allocation may re-enter emit through
                    // an instrumented global allocator; the latch
                    // turns that inner call into a no-op. The leak is
                    // deliberate: drains read a ring after its thread
                    // exits, and there are at most one per thread.
                    // Relaxed: tids need only be unique.
                    let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
                    let ring: &'static Ring = Box::leak(Box::new(Ring::new(ring_capacity(), tid)));
                    register(ring);
                    cell.set(Some(ring));
                    ring
                }
            };
            ring.push(Event {
                ts_ns,
                arg,
                id,
                kind,
                tid: ring.tid,
            });
        });
        latch.set(false);
    });
}

/// Copies every pending event out of every ring, without stopping
/// writers, and returns them sorted by timestamp (ties broken by
/// thread then catalogue id, so the order is total and deterministic).
pub fn drain() -> Vec<Event> {
    let _guard = DRAIN
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let mut out = Vec::new();
    for_each_ring(|ring| ring.drain_into(&mut out));
    out.sort_by_key(|e| (e.ts_ns, e.tid, e.id));
    out
}

/// Total events dropped across all rings since process start.
pub fn dropped_events() -> u64 {
    let mut total = 0;
    for_each_ring(|ring| total += ring.dropped());
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    // The recorder is process-global state; keep every test in one
    // function so they cannot interleave recording windows.
    #[test]
    fn record_drain_roundtrip() {
        assert!(!recording());
        // Disabled: nothing is captured.
        emit(EventKind::Instant, catalog::SWEEP_CACHE_HIT, 0);
        set_recording(true);
        emit(EventKind::SpanBegin, catalog::SWEEP_JOB, 42);
        emit(EventKind::SpanEnd, catalog::SWEEP_JOB, 0);
        let worker = std::thread::spawn(|| {
            emit(EventKind::Instant, catalog::SWEEP_CACHE_MISS, 7);
        });
        worker.join().expect("worker");
        set_recording(false);
        emit(EventKind::Instant, catalog::SWEEP_CACHE_HIT, 0);

        let events = drain();
        assert_eq!(events.len(), 3, "{events:?}");
        assert!(events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        let tids: std::collections::BTreeSet<u32> = events.iter().map(|e| e.tid).collect();
        assert_eq!(tids.len(), 2, "two threads recorded");
        assert!(events
            .iter()
            .any(|e| e.id == catalog::SWEEP_CACHE_MISS && e.arg == 7));
        // A second drain finds the rings empty.
        assert!(drain().is_empty());
        assert_eq!(dropped_events(), 0);
    }
}
