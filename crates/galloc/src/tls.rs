//! The lock-free hot path: per-thread magazines.
//!
//! A magazine is a bounded stack of free blocks of one class; hits
//! are a pure thread-local pop/push. Misses pull `MAG_BATCH` blocks
//! from the home shard in one locked refill; overflowing frees return
//! half the magazine in one locked flush.
//!
//! Re-entrancy: nothing on these paths allocates. An allocation that
//! finds the thread cache unavailable (its `RefCell` already borrowed,
//! or its destructor already run) degrades to the lock-direct path —
//! never a deadlock, never a panic.

// Library code only: in-file `#[cfg(test)]` modules are exempt.
#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]

use crate::classes::NUM_CLASSES;
use crate::counters::TlsCounters;
use crate::inner::Inner;
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Magazine capacity per class.
pub const MAG_CAP: usize = 32;
/// Blocks pulled per refill (and kept per flush): half a magazine, so
/// a thread alternating one alloc and one free near the boundary does
/// not thrash the shard lock.
pub const MAG_BATCH: usize = MAG_CAP / 2;
/// Requested bytes a thread serves before it drains its counter batch
/// into the shared counters.
const COUNTER_FLUSH: u64 = 16 * 1024;

#[derive(Clone, Copy)]
struct Magazine {
    len: usize,
    slots: [*mut u8; MAG_CAP],
}

/// Per-thread allocator state.
struct Tls {
    mags: [Magazine; NUM_CLASSES],
    counters: TlsCounters,
    /// Requested bytes served since the last counter drain.
    bytes_pending: u64,
    home_shard: usize,
}

thread_local! {
    static TLS: RefCell<Tls> = RefCell::new(Tls::new());
}

/// Round-robin home-shard assignment for new threads.
static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

/// Outcome of a size-class allocation attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmallAlloc {
    /// Served from the class path.
    Served(*mut u8),
    /// The reserved area is exhausted; fall back to the system
    /// allocator.
    Exhausted,
}

impl Tls {
    fn new() -> Tls {
        Tls {
            mags: [Magazine {
                len: 0,
                slots: [std::ptr::null_mut(); MAG_CAP],
            }; NUM_CLASSES],
            counters: TlsCounters::default(),
            bytes_pending: 0,
            home_shard: usize::MAX,
        }
    }

    #[expect(
        clippy::arithmetic_side_effects,
        reason = "`shard_count() - 1`: validate() admits only power-of-two shard counts, so the \
                  count is at least 1 and the mask at least 0."
    )]
    fn home(&mut self, inner: &Inner) -> usize {
        if self.home_shard == usize::MAX {
            // Relaxed: a round-robin pick needs no ordering.
            self.home_shard =
                NEXT_THREAD.fetch_add(1, Ordering::Relaxed) & (inner.shard_count() - 1);
        }
        self.home_shard
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "`class` is a class_for result indexing [_; NUM_CLASSES]; `slots[mag.len]` \
                  follows the decrement of a nonzero len <= MAG_CAP, `slots[..MAG_BATCH]` is a \
                  constant prefix of a MAG_CAP array, and `slots[n - 1]` reads one of the n <= \
                  MAG_BATCH blocks refill just wrote."
    )]
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "`mag.len -= 1` and `n - 1` run after their zero checks; the counters are u64 \
                  tallies drained every COUNTER_FLUSH bytes."
    )]
    fn alloc_mag(&mut self, inner: &Inner, class: usize) -> Option<*mut u8> {
        let mag = &mut self.mags[class];
        if mag.len > 0 {
            mag.len -= 1;
            return Some(mag.slots[mag.len]);
        }
        let home = self.home(inner);
        let n = inner.refill(home, class, &mut self.mags[class].slots[..MAG_BATCH]);
        if n == 0 {
            return None;
        }
        self.counters.lock_allocs += 1;
        self.counters.refills += 1;
        let mag = &mut self.mags[class];
        mag.len = n - 1;
        Some(mag.slots[n - 1])
    }
}

impl Drop for Tls {
    #[expect(
        clippy::indexing_slicing,
        reason = "`slots[..mag.len]` in the thread-exit flush: len <= MAG_CAP is the magazine's \
                  fill invariant (every push decrements capacity headroom first). A violated \
                  invariant aborting at thread exit beats flushing garbage pointers into the \
                  shard free lists."
    )]
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "The counters are u64 tallies."
    )]
    fn drop(&mut self) {
        let Some(inner) = crate::active_inner() else {
            return;
        };
        let home = if self.home_shard == usize::MAX {
            0
        } else {
            self.home_shard
        };
        for mag in &self.mags {
            if mag.len > 0 {
                self.counters.flushes += 1;
                self.counters.remote_frees += inner.flush_blocks(home, &mag.slots[..mag.len]);
            }
        }
        self.counters.drain_into(&inner.counters);
    }
}

/// Allocates one block of `class`; `req` is the requested
/// (pre-rounding) size in bytes.
#[expect(
    clippy::arithmetic_side_effects,
    reason = "Per-thread u64 tallies of allocations and requested bytes, drained every \
              COUNTER_FLUSH bytes: wrapping needs 2^64 allocations."
)]
pub fn alloc_small(inner: &Inner, class: usize, req: usize) -> SmallAlloc {
    let served = TLS.try_with(|cell| {
        let Ok(mut borrow) = cell.try_borrow_mut() else {
            return None;
        };
        let t = &mut *borrow;
        let Some(p) = t.alloc_mag(inner, class) else {
            return Some(SmallAlloc::Exhausted);
        };
        t.counters.small_allocs += 1;
        t.counters.small_bytes += req as u64;
        t.bytes_pending += req as u64;
        if t.bytes_pending >= COUNTER_FLUSH {
            t.bytes_pending = 0;
            t.counters.drain_into(&inner.counters);
        }
        Some(SmallAlloc::Served(p))
    });
    if let Ok(Some(outcome)) = served {
        return outcome;
    }
    // Allocator re-entry or TLS teardown: lock-direct.
    match inner.alloc_lock_direct(class) {
        Some(p) => {
            inner
                .counters
                .reentrant_allocs
                .fetch_add(1, Ordering::Relaxed);
            inner.counters.small_allocs.fetch_add(1, Ordering::Relaxed);
            inner.counters.lock_allocs.fetch_add(1, Ordering::Relaxed);
            inner
                .counters
                .small_bytes
                .fetch_add(req as u64, Ordering::Relaxed);
            SmallAlloc::Served(p)
        }
        None => SmallAlloc::Exhausted,
    }
}

/// Frees one regular block of `class` into the thread magazine (or
/// straight to its owner's central list when the thread cache is
/// unavailable).
#[expect(
    clippy::indexing_slicing,
    reason = "`class` comes from the owning segment's metadata (< NUM_CLASSES); a full magazine \
              is flushed down to MAG_CAP - MAG_BATCH first, so `slots[mag.len]` is below \
              MAG_CAP, and `slots[..MAG_BATCH]` is a constant prefix."
)]
#[expect(
    clippy::arithmetic_side_effects,
    reason = "`mag.len += 1` stays <= MAG_CAP because the flush above runs at MAG_CAP; the \
              counters are u64 tallies."
)]
pub fn free_small(inner: &Inner, ptr: *mut u8, class: usize) {
    let handled = TLS
        .try_with(|cell| {
            let Ok(mut borrow) = cell.try_borrow_mut() else {
                return false;
            };
            let t = &mut *borrow;
            if t.mags[class].len == MAG_CAP {
                let home = t.home(inner);
                t.counters.flushes += 1;
                t.counters.remote_frees +=
                    inner.flush_blocks(home, &t.mags[class].slots[..MAG_BATCH]);
                let mag = &mut t.mags[class];
                mag.slots.copy_within(MAG_BATCH..MAG_CAP, 0);
                mag.len = MAG_CAP - MAG_BATCH;
            }
            let mag = &mut t.mags[class];
            mag.slots[mag.len] = ptr;
            mag.len += 1;
            t.counters.mag_frees += 1;
            true
        })
        .unwrap_or(false);
    if !handled {
        inner.free_lock_direct(ptr);
        inner.counters.central_frees.fetch_add(1, Ordering::Relaxed);
    }
}
