//! The per-thread SPSC event ring.
//!
//! Exactly one thread — the ring's owner — ever calls [`Ring::push`];
//! exactly one drainer at a time (serialized by the recorder's drain
//! lock) calls [`Ring::drain_into`]. The protocol is a pure index
//! hand-off over two atomics:
//!
//! * `head` (writer-owned): the writer fills `slots[head & mask]` and
//!   then **Release-stores** `head + 1`, publishing the slot's bytes.
//!   The drainer **Acquire-loads** `head`, so every event below it is
//!   fully written before the drainer copies it out.
//! * `tail` (drainer-owned): the drainer copies events out of
//!   `[tail, head)` and then **Release-stores** the new `tail`,
//!   handing the slots back. The writer **Acquire-loads** `tail`
//!   before reusing a slot, so its overwrite happens-after the
//!   drainer's reads.
//!
//! When the ring is full the writer drops the *new* event and counts
//! it in `dropped` — the recorded prefix stays contiguous, and the
//! drop total is surfaced so an undersized ring is visible rather
//! than silent.

use crate::event::Event;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// One thread's event ring. Capacity is a power of two fixed at
/// construction.
#[derive(Debug)]
pub(crate) struct Ring {
    slots: Box<[UnsafeCell<Event>]>,
    mask: usize,
    /// Writer cursor: next slot to fill. Release-published per push.
    head: AtomicUsize,
    /// Drainer cursor: next slot to read. Release-published per drain.
    tail: AtomicUsize,
    /// Events discarded because the ring was full.
    dropped: AtomicU64,
    /// Recorder-assigned owner thread number.
    pub(crate) tid: u32,
}

// SAFETY: the UnsafeCell slots are the single-producer/single-consumer
// hand-off surface documented above — each slot is written only by the
// owning thread while it holds the slot (tail Acquire-checked) and read
// only by the serialized drainer after the head Acquire-load, so no
// slot is ever accessed concurrently from both sides.
unsafe impl Send for Ring {}
// SAFETY: as above; shared references only expose the atomic cursors
// plus slot accesses ordered by them.
unsafe impl Sync for Ring {}

impl Ring {
    /// Creates a ring with `capacity` slots (rounded up to a power of
    /// two, minimum 8).
    pub(crate) fn new(capacity: usize, tid: u32) -> Ring {
        let cap = capacity.max(8).next_power_of_two();
        let zero = Event {
            ts_ns: 0,
            arg: 0,
            id: 0,
            kind: crate::event::EventKind::Instant,
            tid,
        };
        let slots: Box<[UnsafeCell<Event>]> = (0..cap).map(|_| UnsafeCell::new(zero)).collect();
        Ring {
            slots,
            mask: cap - 1,
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
            tid,
        }
    }

    /// Number of slots.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Events dropped on the floor because the ring was full.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Appends one event. **Owner thread only.**
    pub(crate) fn push(&self, event: Event) {
        let head = self.head.load(Ordering::Relaxed);
        // Acquire pairs with drain_into's Release store of `tail`: the
        // drainer's reads of a recycled slot happen-before our write.
        let tail = self.tail.load(Ordering::Acquire);
        if head.wrapping_sub(tail) >= self.slots.len() {
            // Relaxed: a statistical count; no slot is written to publish.
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let slot = &self.slots[head & self.mask];
        // SAFETY: the slot at `head` is outside [tail, head), so the
        // drainer will not read it until our Release store below, and
        // no other thread ever writes this ring (SPSC contract).
        unsafe { *slot.get() = event };
        // Release publishes the slot bytes to the drainer's Acquire
        // load of `head`.
        self.head.store(head.wrapping_add(1), Ordering::Release);
    }

    /// Copies every pending event into `out` and frees the slots.
    /// **One drainer at a time** (the recorder serializes).
    pub(crate) fn drain_into(&self, out: &mut Vec<Event>) {
        // Acquire pairs with push's Release store: every slot below
        // `head` is fully written before we read it.
        let head = self.head.load(Ordering::Acquire);
        let mut tail = self.tail.load(Ordering::Relaxed);
        while tail != head {
            let slot = &self.slots[tail & self.mask];
            // SAFETY: `tail` is in [tail, head): the writer finished
            // this slot before its Release store of `head`, and will
            // not reuse it until it Acquire-observes our `tail` store
            // below.
            out.push(unsafe { *slot.get() });
            tail = tail.wrapping_add(1);
        }
        // Release hands the consumed slots back to the writer's
        // Acquire load of `tail`.
        self.tail.store(tail, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(id: u16, ts: u64) -> Event {
        Event {
            ts_ns: ts,
            arg: 0,
            id,
            kind: EventKind::Instant,
            tid: 1,
        }
    }

    #[test]
    fn push_then_drain_in_order() {
        let ring = Ring::new(8, 1);
        for i in 0..5 {
            ring.push(ev(i as u16, i));
        }
        let mut out = Vec::new();
        ring.drain_into(&mut out);
        assert_eq!(out.len(), 5);
        assert!(out.iter().enumerate().all(|(i, e)| e.ts_ns == i as u64));
        // Drained slots are reusable.
        ring.push(ev(9, 9));
        out.clear();
        ring.drain_into(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].ts_ns, 9);
    }

    #[test]
    fn full_ring_drops_newest_and_counts() {
        let ring = Ring::new(8, 1);
        for i in 0..12 {
            ring.push(ev(0, i));
        }
        assert_eq!(ring.dropped(), 4);
        let mut out = Vec::new();
        ring.drain_into(&mut out);
        // The *oldest* 8 survive: the recorded prefix is contiguous.
        assert_eq!(out.len(), 8);
        assert_eq!(out[0].ts_ns, 0);
        assert_eq!(out[7].ts_ns, 7);
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(Ring::new(0, 1).capacity(), 8);
        assert_eq!(Ring::new(9, 1).capacity(), 16);
        assert_eq!(Ring::new(1 << 14, 1).capacity(), 1 << 14);
    }

    #[test]
    fn concurrent_drain_while_pushing_loses_nothing_but_drops() {
        use std::sync::Arc;
        let ring = Arc::new(Ring::new(64, 1));
        let writer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                for i in 0..10_000u64 {
                    ring.push(ev(7, i));
                }
            })
        };
        let mut seen = Vec::new();
        while !writer.is_finished() {
            ring.drain_into(&mut seen);
        }
        writer.join().expect("writer");
        ring.drain_into(&mut seen);
        // Everything that was not dropped arrives exactly once, in
        // timestamp order (the writer stamped 0..N).
        assert_eq!(seen.len() as u64 + ring.dropped(), 10_000);
        assert!(seen.windows(2).all(|w| w[0].ts_ns < w[1].ts_ns));
    }
}
