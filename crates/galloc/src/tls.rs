//! The lock-free hot path: per-thread magazines, short-lived bump
//! runs, and a per-thread prediction cache.
//!
//! A magazine is a bounded stack of free blocks of one class; hits
//! are a pure thread-local pop/push. Misses pull `MAG_BATCH` blocks
//! from the home shard in one locked refill; overflowing frees return
//! half the magazine in one locked flush. Predicted-short allocations
//! bump through a thread-local run carved (and pre-counted) from a
//! short-lived segment.
//!
//! Re-entrancy: the allocator's own bookkeeping (learner tables,
//! pending feedback) allocates through the global allocator. Any
//! nested entry finds the `RefCell` already borrowed (or the TLS
//! destructor already run) and degrades to the lock-direct path —
//! never a deadlock, never a panic.

// Library code only: in-file `#[cfg(test)]` modules are exempt.
#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]

use crate::classes::{CLASS_SIZES, NUM_CLASSES};
use crate::counters::TlsCounters;
use crate::inner::Inner;
use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Magazine capacity per class.
pub const MAG_CAP: usize = 32;
/// Blocks pulled per refill (and kept per flush): half a magazine, so
/// a thread alternating one alloc and one free near the boundary does
/// not thrash the shard lock.
pub const MAG_BATCH: usize = MAG_CAP / 2;
/// Direct-mapped prediction-cache entries.
const PRED_CACHE: usize = 256;
/// Thread-local allocation bytes accumulated before publishing to the
/// shared byte clock (and draining counter batches).
const CLOCK_FLUSH: u64 = 16 * 1024;

/// Blocks per short-lived run pulled into a thread: ~16 KiB worth,
/// clamped so tiny classes refill rarely and big classes do not pin
/// most of a segment per thread.
#[expect(
    clippy::arithmetic_side_effects,
    clippy::indexing_slicing,
    reason = "`class` is a class_for result below NUM_CLASSES, and every CLASS_SIZES entry is \
              nonzero, so the division is defined."
)]
const fn run_blocks(class: usize) -> usize {
    let n = (16 * 1024) / CLASS_SIZES[class];
    if n < 8 {
        8
    } else if n > 64 {
        64
    } else {
        n
    }
}

#[derive(Clone, Copy)]
struct Magazine {
    len: usize,
    slots: [*mut u8; MAG_CAP],
}

#[derive(Clone, Copy, Default)]
struct ShortRun {
    cursor: usize,
    end: usize,
    /// Segment index + 1 backing this run (0 = none).
    seg: u32,
}

#[derive(Clone, Copy)]
struct PredEntry {
    fp: u64,
    gen: u64,
    short: bool,
}

/// Per-thread allocator state.
struct Tls {
    mags: [Magazine; NUM_CLASSES],
    runs: [ShortRun; NUM_CLASSES],
    pred: [PredEntry; PRED_CACHE],
    snap_gen: u64,
    snap: Option<Arc<HashSet<u64>>>,
    counters: TlsCounters,
    bytes_pending: u64,
    sample_tick: u32,
    home_shard: usize,
}

thread_local! {
    static TLS: RefCell<Tls> = RefCell::new(Tls::new());
    /// Set while this thread is inside allocator bookkeeping that
    /// holds a bookkeeping lock (the feedback pending mutex, the
    /// learner mutex during an epoch tick). Nested allocations and
    /// frees made by that bookkeeping (hash-map growth, sample
    /// vectors) must not sample, probe, or tick — any of those would
    /// re-take the lock the outer frame already holds.
    static BOOKKEEPING: Cell<bool> = const { Cell::new(false) };
}

/// RAII marker for a bookkeeping section; restores the previous
/// state so sections nest.
pub struct BookkeepingGuard(bool);

impl Drop for BookkeepingGuard {
    fn drop(&mut self) {
        let _ = BOOKKEEPING.try_with(|c| c.set(self.0));
    }
}

/// Marks this thread as inside allocator bookkeeping until the guard
/// drops.
pub fn enter_bookkeeping() -> BookkeepingGuard {
    BookkeepingGuard(BOOKKEEPING.try_with(|c| c.replace(true)).unwrap_or(true))
}

/// Whether this thread is inside allocator bookkeeping (treats a
/// torn-down TLS as yes: during thread exit, skipping feedback is the
/// safe default).
pub fn in_bookkeeping() -> bool {
    BOOKKEEPING.try_with(|c| c.get()).unwrap_or(true)
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
            runs: [ShortRun::default(); NUM_CLASSES],
            pred: [PredEntry {
                fp: 0,
                gen: u64::MAX,
                short: false,
            }; PRED_CACHE],
            snap_gen: u64::MAX,
            snap: None,
            counters: TlsCounters::default(),
            bytes_pending: 0,
            sample_tick: 0,
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

    /// Consults the published predicted-short set through the
    /// per-thread cache: one atomic generation load per call, a table
    /// lookup only on cache misses or generation changes.
    #[expect(
        clippy::indexing_slicing,
        reason = "`pred[idx]`: idx is masked with PRED_CACHE - 1 and `pred` is [_; PRED_CACHE], \
                  PRED_CACHE a power of two."
    )]
    fn predict(&mut self, inner: &Inner, fp: u64) -> bool {
        let gen = inner.predictor.generation();
        let idx = (fp ^ (fp >> 32)) as usize & (PRED_CACHE - 1);
        let e = self.pred[idx];
        if e.fp == fp && e.gen == gen {
            return e.short;
        }
        if self.snap.is_none() || self.snap_gen != gen {
            if let Some((g, t)) = inner.predictor.refresh_if_stale(self.snap_gen) {
                self.snap_gen = g;
                self.snap = Some(t);
            }
        }
        let short = self.snap.as_ref().is_some_and(|s| s.contains(&fp));
        self.pred[idx] = PredEntry { fp, gen, short };
        short
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
                  tallies drained at every clock flush."
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

    #[expect(
        clippy::indexing_slicing,
        reason = "`class` is a class_for result indexing CLASS_SIZES and the [_; NUM_CLASSES] \
                  run array."
    )]
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "Short-run bump arithmetic: `start + size` and `start + n * size` with size a \
                  CLASS_SIZES entry (<= 2048) and n = run_blocks(class) (<= 64), both clamped, \
                  so the span is <= 128 KiB added to an in-area address handed out by \
                  short_refill, which already bounded the run to its segment. `seg + 1` links a \
                  segment index below the segment count, and the counters are u64 tallies \
                  drained at every clock flush."
    )]
    fn alloc_short(&mut self, inner: &Inner, class: usize) -> Option<*mut u8> {
        let size = CLASS_SIZES[class];
        let run = &mut self.runs[class];
        if run.cursor < run.end {
            let p = run.cursor as *mut u8;
            run.cursor += size;
            return Some(p);
        }
        let home = self.home(inner);
        let (start, n, seg) = inner.short_refill(home, class, run_blocks(class))?;
        self.counters.lock_allocs += 1;
        self.counters.short_refills += 1;
        let run = &mut self.runs[class];
        run.cursor = start + size;
        run.end = start + n * size;
        run.seg = seg + 1;
        Some(start as *mut u8)
    }
}

impl Drop for Tls {
    #[expect(
        clippy::indexing_slicing,
        reason = "`slots[..mag.len]` in the thread-exit flush: len <= MAG_CAP is the magazine's \
                  fill invariant (every push decrements capacity headroom first). A violated \
                  invariant aborting at thread exit beats flushing garbage pointers into the \
                  shard free lists. `mags[class]` and `runs[class]` walk CLASS_SIZES' own \
                  indices."
    )]
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "`end - cursor` runs under `cursor < end` and divides by a nonzero class size, \
                  `seg - 1` runs under `seg != 0`, and the counters are u64 tallies."
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
        for (class, &size) in CLASS_SIZES.iter().enumerate() {
            let mag = &self.mags[class];
            if mag.len > 0 {
                let (_, foreign) = inner.flush_blocks(home, &mag.slots[..mag.len]);
                self.counters.flushes += 1;
                self.counters.remote_frees += foreign;
            }
            let run = &self.runs[class];
            if run.seg != 0 && run.cursor < run.end {
                // Blocks carved into this run but never handed out:
                // drop them from the segment's pre-counted live count
                // so the segment can still reset.
                let unused = ((run.end - run.cursor) / size) as u32;
                inner.short_unused(run.seg - 1, unused);
            }
        }
        self.counters.drain_into(&inner.counters);
        if self.bytes_pending > 0 {
            // May drive an epoch tick, which allocates; nested
            // allocations during our own teardown take the
            // lock-direct path (try_with fails), never this TLS.
            let _guard = enter_bookkeeping();
            inner.flush_clock(self.bytes_pending);
        }
    }
}

/// Allocates one block of `class`. `fp` is the site fingerprint and
/// `req` the requested (pre-rounding) size in bytes.
#[expect(
    clippy::arithmetic_side_effects,
    reason = "Per-thread u64 tallies of allocations and requested bytes, drained at every \
              CLOCK_FLUSH of bytes: wrapping needs 2^64 allocations."
)]
pub fn alloc_small(inner: &Inner, class: usize, fp: u64, req: usize) -> SmallAlloc {
    let mut served = None;
    let mut sample = false;
    let mut flush_bytes = 0u64;
    // Inside a bookkeeping section this allocation IS the allocator's
    // own (a pending-table insert, a learner update): it must not
    // sample or tick, both of which take locks the outer frame may
    // hold.
    let bookkeeping = in_bookkeeping();
    let entered = TLS
        .try_with(|cell| {
            let Ok(mut borrow) = cell.try_borrow_mut() else {
                return false;
            };
            let t = &mut *borrow;
            // Bookkeeping allocations skip prediction too: they are
            // the allocator's own tables, and the prediction snapshot
            // refresh takes a lock of its own.
            let predicted = !bookkeeping && t.predict(inner, fp);
            let ptr = if predicted {
                // A failed short refill (area pressure) falls back to
                // the regular magazine before giving up.
                t.alloc_short(inner, class)
                    .or_else(|| t.alloc_mag(inner, class))
            } else {
                t.alloc_mag(inner, class)
            };
            if let Some(p) = ptr {
                t.counters.small_allocs += 1;
                t.counters.small_bytes += req as u64;
                if predicted {
                    t.counters.short_allocs += 1;
                }
                t.sample_tick = t.sample_tick.wrapping_add(1);
                sample = !bookkeeping && t.sample_tick & (inner.config.sample_every - 1) == 0;
                t.bytes_pending += req as u64;
                if !bookkeeping && t.bytes_pending >= CLOCK_FLUSH {
                    flush_bytes = t.bytes_pending;
                    t.bytes_pending = 0;
                    t.counters.drain_into(&inner.counters);
                }
                served = Some((p, predicted));
            }
            true
        })
        .unwrap_or(false);

    if !entered {
        // Allocator re-entry or TLS teardown: lock-direct.
        return match inner.alloc_lock_direct(class) {
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
        };
    }
    let Some((ptr, predicted)) = served else {
        return SmallAlloc::Exhausted;
    };
    // Bookkeeping that can itself allocate runs only after the borrow
    // above is released, and under the re-entrancy marker so its own
    // allocations stay out of the feedback machinery.
    if sample || flush_bytes > 0 {
        let _guard = enter_bookkeeping();
        if sample {
            let birth = inner.clock.load(Ordering::Relaxed);
            if inner
                .feedback
                .try_sample(ptr, fp, birth, req as u32, predicted)
            {
                inner
                    .counters
                    .sampled_allocs
                    .fetch_add(1, Ordering::Relaxed);
            } else {
                inner.counters.sample_drops.fetch_add(1, Ordering::Relaxed);
            }
        }
        if flush_bytes > 0 {
            inner.flush_clock(flush_bytes);
        }
    }
    SmallAlloc::Served(ptr)
}

/// Frees one regular block of `class` into the thread magazine (or
/// the owner's remote stack when the thread cache is unavailable).
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
                let (_, foreign) = inner.flush_blocks(home, &t.mags[class].slots[..MAG_BATCH]);
                t.counters.flushes += 1;
                t.counters.remote_frees += foreign;
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
        inner.remote_push(ptr);
        inner.counters.central_frees.fetch_add(1, Ordering::Relaxed);
    }
}

/// Frees one short-lived block (live-count decrement; lock-free).
#[expect(
    clippy::arithmetic_side_effects,
    reason = "`short_frees += 1` is a per-thread u64 tally, drained at every clock flush."
)]
pub fn free_short(inner: &Inner, ptr: *mut u8) {
    inner.short_free(ptr);
    let counted = TLS
        .try_with(|cell| {
            cell.try_borrow_mut()
                .map(|mut t| t.counters.short_frees += 1)
                .is_ok()
        })
        .unwrap_or(false);
    if !counted {
        inner.counters.short_frees.fetch_add(1, Ordering::Relaxed);
    }
}
