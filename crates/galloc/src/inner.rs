//! The process-wide allocator core: one reserved area split into
//! per-shard segment runs, central per-class free lists, lock-free
//! remote-free stacks, and bump-carved short-lived segments.
//!
//! Everything here runs under a shard lock or over atomics; the
//! lock-free *hot* path lives in [`crate::tls`] and only calls down
//! here on magazine refills/flushes. No function in this module
//! allocates while holding a shard lock — central lists are intrusive
//! (a free block's first word links to the next), so a nested
//! allocation can never deadlock on the lock its caller holds.

// Library code only: in-file `#[cfg(test)]` modules are exempt.
#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]

use crate::classes::{CLASS_SIZES, NUM_CLASSES};
use crate::config::{GallocConfig, SEG_SHIFT, SEG_SIZE};
use crate::counters::GCounters;
use crate::feedback::Feedback;
use lifepred_adaptive::SharedPredictor;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Segment is unassigned (on a shard's free-segment list).
pub const SEG_FREE: u8 = 0;
/// Segment is carved into regular blocks recycled via free lists.
pub const SEG_REGULAR: u8 = 1;
/// Short-lived segment currently being carved.
pub const SEG_SHORT: u8 = 2;
/// Short-lived segment fully carved; resets when its live count
/// reaches zero.
pub const SEG_SHORT_FULL: u8 = 3;
/// Short-lived segment claimed for the owner's reclaim stack.
pub const SEG_SHORT_RECLAIM: u8 = 4;

/// Per-segment metadata, indexed by `(addr - base) >> SEG_SHIFT`.
///
/// All fields are atomics because the free path reads `state`/`class`
/// and decrements `live` without taking the owning shard's lock.
#[derive(Debug)]
pub struct SegMeta {
    /// One of the `SEG_*` states.
    pub state: AtomicU8,
    /// Size class the segment is carved for.
    pub class: AtomicU8,
    /// Outstanding blocks in a short segment (pre-counted per carved
    /// run; see [`Inner::short_refill`]).
    pub live: AtomicU32,
    /// Intrusive link (segment index + 1, 0 = nil) for the free list
    /// and the reclaim stack.
    pub next: AtomicU32,
}

/// Pads a shard to its own cache line.
#[repr(align(64))]
#[derive(Debug)]
struct CacheLine<T>(T);

/// Bump cursor over the current carve segment of one class.
#[derive(Debug, Clone, Copy, Default)]
struct Bump {
    cursor: usize,
    end: usize,
    /// Segment index + 1 of the segment under the cursor (0 = none);
    /// only meaningful for short-lived bumps, whose segment must be
    /// retired when exhausted.
    seg: u32,
}

/// The lock-protected half of a shard.
#[derive(Debug)]
struct ShardInner {
    /// Intrusive per-class free lists (head = block address, 0 = nil;
    /// a free block's first word holds the next address).
    free_head: [usize; NUM_CLASSES],
    free_len: [u32; NUM_CLASSES],
    /// Head of the free-segment list (segment index + 1, 0 = nil).
    free_segs: u32,
    regular: [Bump; NUM_CLASSES],
    short: [Bump; NUM_CLASSES],
}

/// One shard: a contiguous run of segments with central free lists.
#[derive(Debug)]
pub struct Shard {
    inner: Mutex<ShardInner>,
    /// Treiber stack of cross-thread-freed regular blocks (head =
    /// block address, 0 = empty). Pushers CAS the head; only the
    /// owner drains, with a single `swap`, so the stack is ABA-free.
    remote: AtomicUsize,
    /// Treiber stack of short segments whose live count hit zero
    /// (segment index + 1), drained by the owner under its lock.
    reclaim: AtomicU32,
}

/// The allocator core behind [`crate::LifepredGlobal`].
#[derive(Debug)]
pub struct Inner {
    base: usize,
    area_len: usize,
    shards: Box<[CacheLine<Shard>]>,
    segs: Box<[SegMeta]>,
    /// `log2(segs_per_shard)`: segment index → shard index.
    seg_shard_shift: u32,
    /// Process-wide counters.
    pub counters: GCounters,
    /// The online lifetime predictor fed by [`Feedback`].
    pub predictor: SharedPredictor,
    /// Allocation byte clock (lifetimes are measured against it).
    pub clock: AtomicU64,
    next_epoch: AtomicU64,
    /// Lifetime-feedback sampling state.
    pub feedback: Feedback,
    /// The geometry this core was built with.
    pub config: GallocConfig,
}

impl Inner {
    /// Reserves the area and builds an idle core.
    ///
    /// # Errors
    ///
    /// Returns a message when `config` is invalid or the area
    /// reservation fails.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "Build-time geometry: validate() caps the area at 1 GiB, so there are at most \
                  2^14 segments, and `s * per_shard`, `first + per_shard - 1`, `i + 2` and \
                  `first + 1` are segment indices (or index + 1 links) far below u32::MAX."
    )]
    #[expect(
        clippy::indexing_slicing,
        reason = "`segs[i]` walks shard `s`'s own run, `first..first + per_shard - 1`, which \
                  lies below `shards * per_shard`, the length of the `segs` table built just \
                  above."
    )]
    pub fn build(config: GallocConfig) -> Result<Inner, String> {
        config.validate()?;
        let area_len = config.area_len();
        let layout =
            Layout::from_size_align(area_len, SEG_SIZE).map_err(|e| format!("area layout: {e}"))?;
        // SAFETY: layout has non-zero size (validate() enforces at
        // least 4 segments per shard).
        let base = unsafe { System.alloc(layout) };
        if base.is_null() {
            return Err(format!("failed to reserve {area_len} byte area"));
        }
        let seg_count = area_len >> SEG_SHIFT;
        let segs: Box<[SegMeta]> = (0..seg_count)
            .map(|_| SegMeta {
                state: AtomicU8::new(SEG_FREE),
                class: AtomicU8::new(0),
                live: AtomicU32::new(0),
                next: AtomicU32::new(0),
            })
            .collect();
        let per_shard = config.segs_per_shard;
        let shards: Box<[CacheLine<Shard>]> = (0..config.shards)
            .map(|s| {
                // Chain this shard's segments into its free list.
                let first = s * per_shard;
                for i in first..first + per_shard - 1 {
                    // Relaxed: the area is not shared until `build` returns.
                    segs[i].next.store((i + 2) as u32, Ordering::Relaxed);
                }
                CacheLine(Shard {
                    inner: Mutex::new(ShardInner {
                        free_head: [0; NUM_CLASSES],
                        free_len: [0; NUM_CLASSES],
                        free_segs: (first + 1) as u32,
                        regular: [Bump::default(); NUM_CLASSES],
                        short: [Bump::default(); NUM_CLASSES],
                    }),
                    remote: AtomicUsize::new(0),
                    reclaim: AtomicU32::new(0),
                })
            })
            .collect();
        Ok(Inner {
            base: base as usize,
            area_len,
            shards,
            segs,
            seg_shard_shift: per_shard.trailing_zeros(),
            counters: GCounters::default(),
            predictor: SharedPredictor::new(config.epoch),
            clock: AtomicU64::new(0),
            next_epoch: AtomicU64::new(config.epoch.epoch_bytes),
            feedback: Feedback::new(),
            config,
        })
    }

    /// Whether `ptr` lies inside the reserved area (the dealloc
    /// ownership check).
    #[inline]
    pub fn contains(&self, ptr: *mut u8) -> bool {
        (ptr as usize).wrapping_sub(self.base) < self.area_len
    }

    /// Number of shards.
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Segment index of an owned pointer.
    #[inline]
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "`ptr - base` on an owned pointer: every caller has passed `contains(ptr)` \
                  (debug-asserted here), so ptr >= base and the offset is below area_len."
    )]
    fn seg_index(&self, ptr: *mut u8) -> usize {
        debug_assert!(self.contains(ptr));
        ((ptr as usize) - self.base) >> SEG_SHIFT
    }

    /// Segment metadata of an owned pointer.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "`segs[seg_index(ptr)]`: every caller has already passed `contains(ptr)` (the \
                  ownership range check that routes foreign pointers to System), so the shifted \
                  offset is < the segment count the table was built with. Out-of-range here \
                  means a wild free; aborting is the designed response."
    )]
    pub fn seg_of(&self, ptr: *mut u8) -> &SegMeta {
        &self.segs[self.seg_index(ptr)]
    }

    /// Owning shard index of an owned pointer.
    #[inline]
    pub fn shard_of(&self, ptr: *mut u8) -> usize {
        self.seg_index(ptr) >> self.seg_shard_shift
    }

    #[expect(
        clippy::arithmetic_side_effects,
        reason = "`base + (seg << SEG_SHIFT)` with `seg` an index into the segment table, so the \
                  sum is a segment start inside the reserved area (at most 1 GiB)."
    )]
    fn seg_base(&self, seg: usize) -> usize {
        self.base + (seg << SEG_SHIFT)
    }

    /// Pops reclaimed and free segments into `guard.free_segs`,
    /// resetting reclaimed short segments to [`SEG_FREE`].
    #[expect(
        clippy::indexing_slicing,
        reason = "`shards[shard]` is the caller's home shard, below the shard count; `segs[seg]` \
                  takes ids off the reclaim stack, which try_reclaim only ever links as a real \
                  segment index + 1."
    )]
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "`head - 1` runs only under `head != 0`, and `seg + 1` re-links an index below \
                  the segment count (at most 2^14)."
    )]
    fn drain_reclaim(&self, shard: usize, guard: &mut ShardInner) {
        let mut head = self.shards[shard].0.reclaim.swap(0, Ordering::Acquire);
        while head != 0 {
            let seg = (head - 1) as usize;
            let meta = &self.segs[seg];
            head = meta.next.load(Ordering::Relaxed);
            debug_assert_eq!(meta.state.load(Ordering::Relaxed), SEG_SHORT_RECLAIM);
            debug_assert_eq!(meta.live.load(Ordering::Relaxed), 0);
            // Relaxed: no other thread can reach this segment until
            // pop_free_seg republishes it with a Release store of state.
            meta.state.store(SEG_FREE, Ordering::Relaxed);
            meta.next.store(guard.free_segs, Ordering::Relaxed);
            guard.free_segs = (seg + 1) as u32;
            self.counters.seg_resets.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Takes a free segment for `class`, in `state` (`SEG_REGULAR` or
    /// `SEG_SHORT`). Returns its index.
    #[expect(
        clippy::arithmetic_side_effects,
        clippy::indexing_slicing,
        reason = "`free_segs - 1` runs after the `free_segs == 0` return, and the result indexes \
                  `segs` because the free-segment list only ever links a real segment index + 1 \
                  (build, drain_reclaim)."
    )]
    fn pop_free_seg(
        &self,
        shard: usize,
        guard: &mut ShardInner,
        class: usize,
        state: u8,
    ) -> Option<usize> {
        if guard.free_segs == 0 {
            self.drain_reclaim(shard, guard);
        }
        if guard.free_segs == 0 {
            return None;
        }
        let seg = (guard.free_segs - 1) as usize;
        let meta = &self.segs[seg];
        guard.free_segs = meta.next.load(Ordering::Relaxed);
        meta.class.store(class as u8, Ordering::Relaxed);
        // Release: the free path reads state/class without the lock.
        meta.state.store(state, Ordering::Release);
        Some(seg)
    }

    /// Drains the remote-free stack into the central lists. Runs under
    /// the shard lock.
    #[expect(
        clippy::indexing_slicing,
        reason = "`shards[shard]` is the caller's home shard, below the shard count."
    )]
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "`drained` counts the blocks popped off one remote stack, at most the blocks of \
                  a 1 GiB area."
    )]
    fn drain_remote(&self, shard: usize, guard: &mut ShardInner) {
        let mut head = self.shards[shard].0.remote.swap(0, Ordering::Acquire);
        let mut drained = 0u64;
        while head != 0 {
            let block = head as *mut u8;
            // SAFETY: blocks on the remote stack are free, exclusively
            // owned by this drain (the swap took the whole stack), and
            // at least word-sized; their first word holds the next
            // link written by the pusher (visible via the Acquire
            // swap pairing with the pusher's Release CAS).
            head = unsafe { link_read(block) };
            let class = self.seg_of(block).class.load(Ordering::Relaxed) as usize;
            push_block(guard, class, block);
            drained += 1;
        }
        if drained > 0 {
            self.counters
                .remote_drained
                .fetch_add(drained, Ordering::Relaxed);
        }
    }

    /// Refills `out` with blocks of `class` from `shard`, returning
    /// how many were produced (possibly 0 when the area is
    /// exhausted). Order of supply: central free list, then the
    /// remote-free stack, then bump carving (taking fresh segments as
    /// needed).
    #[expect(
        clippy::indexing_slicing,
        reason = "`out[n]` is guarded by the `n < out.len()` loop condition on every arm; \
                  `guard.regular[class]` and `CLASS_SIZES[class]` index [_; N_CLASSES] arrays \
                  with a class the caller derived from class_for (< N_CLASSES by construction). \
                  All arms dead unless a class invariant broke — aborting under the shard lock \
                  beats carving blocks with a wild size. `self.shards[shard]` is the caller's \
                  home shard, below the shard count."
    )]
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "Bump-cursor advances inside one 64 KiB segment: `size` is a CLASS_SIZES entry \
                  (<= 2048), the cursor is an address inside the reserved area, and the carve \
                  loop re-checks `cursor + size <= end` before every step, so the sum can \
                  neither overflow usize nor escape the segment. A checked_add here would guard \
                  against a state the preceding bound check already excludes. Segment-boundary \
                  math: `seg_start + SEG_SIZE` with seg_start derived from the validated area \
                  base and a segment index bounded by the segment table length; the area itself \
                  was sized with checked multiplication at build time, so every segment end is a \
                  valid in-area address. `n` counts up to out.len()."
    )]
    pub fn refill(&self, shard: usize, class: usize, out: &mut [*mut u8]) -> usize {
        let size = CLASS_SIZES[class];
        let mut guard = self.shards[shard]
            .0
            .inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let guard = &mut *guard;
        let mut n = 0;
        while n < out.len() {
            if let Some(block) = pop_block(guard, class) {
                out[n] = block;
                n += 1;
                continue;
            }
            // Central list empty: pull in remote frees once, then carve.
            self.drain_remote(shard, guard);
            if let Some(block) = pop_block(guard, class) {
                out[n] = block;
                n += 1;
                continue;
            }
            if guard.regular[class].cursor + size > guard.regular[class].end {
                match self.pop_free_seg(shard, guard, class, SEG_REGULAR) {
                    Some(seg) => {
                        let bump = &mut guard.regular[class];
                        bump.cursor = self.seg_base(seg);
                        bump.end = bump.cursor + SEG_SIZE;
                        bump.seg = 0;
                    }
                    None => break,
                }
            }
            let bump = &mut guard.regular[class];
            out[n] = bump.cursor as *mut u8;
            bump.cursor += size;
            n += 1;
        }
        n
    }

    /// Serves one block of `class` without touching thread-local
    /// state (allocator re-entry and TLS-teardown path).
    pub fn alloc_lock_direct(&self, class: usize) -> Option<*mut u8> {
        let mut one = [std::ptr::null_mut(); 1];
        // Shard 0 serves the rare lock-direct path; contention on it
        // is bounded by how rare re-entry is.
        if self.refill(0, class, &mut one) == 1 {
            Some(one[0])
        } else {
            None
        }
    }

    /// Returns freed `blocks` (all of class `class`'s shard-agnostic
    /// magazine) to their owners: home-shard blocks go to the central
    /// list under one lock, foreign blocks to their owners' remote
    /// stacks. Returns `(home, foreign)` counts.
    #[expect(
        clippy::indexing_slicing,
        reason = "`deferred[home_n]` is bounded by blocks.len() <= MAG_CAP (callers pass \
                  magazine slices, deferred is [_; MAG_CAP]); `shards[home]` is the caller's \
                  home shard, produced modulo the shard count. Both arms are dead unless a \
                  magazine invariant broke, in which case aborting under the shard lock beats \
                  corrupting its free list."
    )]
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "`home_n` and `foreign` count the blocks of one magazine slice, at most \
                  MAG_CAP."
    )]
    pub fn flush_blocks(&self, home: usize, blocks: &[*mut u8]) -> (u64, u64) {
        let mut foreign = 0u64;
        let mut deferred = [std::ptr::null_mut(); crate::tls::MAG_CAP];
        let mut home_n = 0;
        for &block in blocks {
            if self.shard_of(block) == home {
                deferred[home_n] = block;
                home_n += 1;
            } else {
                self.remote_push(block);
                foreign += 1;
            }
        }
        if home_n > 0 {
            let mut guard = self.shards[home]
                .0
                .inner
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            for &block in &deferred[..home_n] {
                let class = self.seg_of(block).class.load(Ordering::Relaxed) as usize;
                push_block(&mut guard, class, block);
            }
        }
        (home_n as u64, foreign)
    }

    /// Pushes one free regular block onto its owning shard's
    /// remote-free stack (lock-free; any thread).
    #[expect(
        clippy::indexing_slicing,
        reason = "`shards[shard_of(block)]`: shard_of reduces the segment index modulo the shard \
                  count, so the index is in range by arithmetic."
    )]
    pub fn remote_push(&self, block: *mut u8) {
        let shard = &self.shards[self.shard_of(block)].0;
        let mut head = shard.remote.load(Ordering::Relaxed);
        loop {
            // SAFETY: the caller owns this just-freed block; it is at
            // least word-sized (minimum class is 8 bytes), inside the
            // reserved area, and not reachable by any other thread
            // until the CAS below publishes it.
            unsafe { link_write(block, head) };
            match shard.remote.compare_exchange_weak(
                head,
                block as usize,
                Ordering::Release,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => head = actual,
            }
        }
    }

    /// Carves a run of up to `want` short-lived blocks of `class`
    /// from `shard`, pre-counting them into the segment's live count.
    /// Returns `(run_start, block_count, seg_index)`.
    #[expect(
        clippy::indexing_slicing,
        reason = "`class` comes from class_for (< NUM_CLASSES) and indexes CLASS_SIZES and the \
                  [_; NUM_CLASSES] bump arrays; `shards[shard]` is the caller's home shard; \
                  `segs[seg]` takes the index pop_free_seg just returned or the live bump's own \
                  `seg - 1`."
    )]
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "Bump-cursor advances inside one 64 KiB segment: `size` is a CLASS_SIZES entry \
                  (<= 2048), the cursor is an address inside the reserved area, and the carve \
                  loop re-checks `cursor + size <= end` before every step, so the sum can \
                  neither overflow usize nor escape the segment. A checked_add here would guard \
                  against a state the preceding bound check already excludes. Segment-boundary \
                  math: `seg_start + SEG_SIZE` with seg_start derived from the validated area \
                  base and a segment index bounded by the segment table length; the area itself \
                  was sized with checked multiplication at build time, so every segment end is a \
                  valid in-area address. `retired - 1` and `bump.seg - 1` run only on a bump \
                  that holds a segment (seg != 0), `seg + 1` links an index below the segment \
                  count, and `(end - cursor) / size` divides a span with cursor <= end by a \
                  nonzero class size."
    )]
    pub fn short_refill(
        &self,
        shard: usize,
        class: usize,
        want: usize,
    ) -> Option<(usize, usize, u32)> {
        let size = CLASS_SIZES[class];
        let mut guard = self.shards[shard]
            .0
            .inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let guard = &mut *guard;
        if guard.short[class].cursor + size > guard.short[class].end {
            let retired = guard.short[class].seg;
            if retired != 0 {
                // Clear before retiring so a failed segment grab below
                // can never retire the same segment twice.
                guard.short[class] = Bump::default();
                self.retire_short(retired - 1);
            }
            let seg = self.pop_free_seg(shard, guard, class, SEG_SHORT)?;
            let bump = &mut guard.short[class];
            bump.cursor = self.seg_base(seg);
            bump.end = bump.cursor + SEG_SIZE;
            bump.seg = (seg + 1) as u32;
        }
        let bump = &mut guard.short[class];
        let avail = (bump.end - bump.cursor) / size;
        let take = want.min(avail);
        let start = bump.cursor;
        bump.cursor += take * size;
        let seg = bump.seg - 1;
        // Pre-count the whole run; the thread cache hands blocks out
        // without touching the segment again and returns any unused
        // tail via short_unused() at thread exit. Relaxed: `live` only
        // counts; the zero-crossing hand-off is the AcqRel CAS on `state`.
        self.segs[seg as usize]
            .live
            .fetch_add(take as u32, Ordering::Relaxed);
        if bump.cursor + size > bump.end {
            // Run consumed the tail: retire now so the live count can
            // release the segment.
            self.retire_short(seg);
            let bump = &mut guard.short[class];
            *bump = Bump::default();
        }
        Some((start, take, seg))
    }

    /// Marks a short segment fully carved. If every block already came
    /// back, queue it for reclaim immediately.
    #[expect(
        clippy::indexing_slicing,
        reason = "`segs[seg]`: `seg` is the short segment the caller's bump was carving, an \
                  index pop_free_seg minted."
    )]
    fn retire_short(&self, seg: u32) {
        let meta = &self.segs[seg as usize];
        meta.state.store(SEG_SHORT_FULL, Ordering::Release);
        if meta.live.load(Ordering::Acquire) == 0 {
            self.try_reclaim(seg);
        }
    }

    /// Attempts the `SEG_SHORT_FULL -> SEG_SHORT_RECLAIM` claim and,
    /// on winning, pushes the segment onto the owner's reclaim stack.
    /// Both the last freeing thread and the retiring owner race here;
    /// the CAS picks exactly one.
    #[expect(
        clippy::indexing_slicing,
        reason = "`segs[seg as usize]`: the seg id was produced by seg_index on an owned pointer \
                  (range-checked by contains) and stored in run/slot bookkeeping; it cannot \
                  exceed the segment table built for the same area. `shards[seg >> \
                  seg_shard_shift]` maps that segment to its owning shard, below the shard count \
                  by the same bound."
    )]
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "`seg + 1` encodes a segment index (at most 2^14) as a nonzero stack link."
    )]
    fn try_reclaim(&self, seg: u32) {
        let meta = &self.segs[seg as usize];
        if meta
            .state
            .compare_exchange(
                SEG_SHORT_FULL,
                SEG_SHORT_RECLAIM,
                Ordering::AcqRel,
                Ordering::Relaxed,
            )
            .is_err()
        {
            return;
        }
        let shard = &self.shards[(seg as usize) >> self.seg_shard_shift].0;
        let mut head = shard.reclaim.load(Ordering::Relaxed);
        loop {
            // Relaxed: the Release CAS on the list head publishes the link.
            meta.next.store(head, Ordering::Relaxed);
            match shard.reclaim.compare_exchange_weak(
                head,
                seg + 1,
                Ordering::Release,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => head = actual,
            }
        }
    }

    /// Frees one short-lived block: decrement the segment's live
    /// count and queue the segment for reclaim when it empties.
    /// Lock-free; any thread. Returns `false` on live-count underflow
    /// (a double free).
    #[expect(
        clippy::arithmetic_side_effects,
        clippy::indexing_slicing,
        reason = "`segs[seg_index(ptr)]` on a pointer dealloc routed here after `contains(ptr)`, \
                  so the index is below the segment count; `live - 1` runs only after the `live \
                  == 0` underflow check."
    )]
    pub fn short_free(&self, ptr: *mut u8) -> bool {
        let seg = self.seg_index(ptr);
        let meta = &self.segs[seg];
        let mut live = meta.live.load(Ordering::Relaxed);
        loop {
            if live == 0 {
                self.counters
                    .short_free_underflows
                    .fetch_add(1, Ordering::Relaxed);
                return false;
            }
            match meta.live.compare_exchange_weak(
                live,
                live - 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => live = actual,
            }
        }
        if live == 1 && meta.state.load(Ordering::Acquire) == SEG_SHORT_FULL {
            self.try_reclaim(seg as u32);
        }
        true
    }

    /// Returns `n` never-handed-out blocks of a short run (thread
    /// exit with a partial run): drop them from the live count.
    #[expect(
        clippy::indexing_slicing,
        reason = "`segs[seg as usize]`: same provenance as try_reclaim — the seg id comes from \
                  the thread's own short-run bookkeeping, which only ever holds ids minted by \
                  seg_index."
    )]
    pub fn short_unused(&self, seg: u32, n: u32) {
        if n == 0 {
            return;
        }
        let meta = &self.segs[seg as usize];
        let prev = meta.live.fetch_sub(n, Ordering::AcqRel);
        debug_assert!(prev >= n);
        if prev == n && meta.state.load(Ordering::Acquire) == SEG_SHORT_FULL {
            self.try_reclaim(seg);
        }
    }

    /// Advances the allocation byte clock by a thread's flushed batch
    /// and drives an epoch tick when one is due. Must not be called
    /// while holding a thread-cache borrow (the tick allocates).
    // Clippy does not follow calls into other crates, so the panic
    // lints cannot see the learner calls below. Why they cannot panic
    // here: Cross-crate calls into the adaptive learner (advance_clock
    // / note_pinned). Their may-panic paths are debug_asserts and
    // checked-arithmetic expects on learner invariants — corruption
    // detectors, not reachable-by-input panics — and the learner's
    // lock() helper recovers poisoned mutexes (into_inner), so a
    // hypothetical abort cannot wedge other threads. flush_clock
    // additionally runs under enter_bookkeeping, so any unwind-path
    // allocation takes the System route.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "The u64 allocation byte clock: `fetch_add(bytes) + bytes` recomputes this \
                  thread's post-advance reading. Wrapping needs 2^64 bytes of real allocation \
                  traffic; the clock is a timestamp source, not a size used for memory access. \
                  `now + epoch_bytes` schedules the next epoch boundary on the u64 byte clock \
                  (epoch_bytes is a validated config in the KiB..GiB range); overflow needs 2^64 \
                  allocated bytes and the value only gates a compare, never an access."
    )]
    pub fn flush_clock(&self, bytes: u64) {
        // Relaxed: birth stamps tolerate one batch of staleness; the
        // epoch rollover consumers act on is the AcqRel CAS below.
        let now = self.clock.fetch_add(bytes, Ordering::Relaxed) + bytes;
        let due = self.next_epoch.load(Ordering::Relaxed);
        if now < due {
            return;
        }
        if self
            .next_epoch
            .compare_exchange(
                due,
                now + self.config.epoch.epoch_bytes,
                Ordering::AcqRel,
                Ordering::Relaxed,
            )
            .is_err()
        {
            return;
        }
        self.counters.epoch_ticks.fetch_add(1, Ordering::Relaxed);
        // The tick allocates inside the learner and the aging scan
        // while holding bookkeeping locks: mark the section so those
        // nested allocations skip sampling, probing, and re-ticking.
        let _guard = crate::tls::enter_bookkeeping();
        let threshold = self.config.epoch.threshold;
        let pinned = self.feedback.aging_scan(now, threshold);
        self.counters
            .pinned_noted
            .fetch_add(pinned.len() as u64, Ordering::Relaxed);
        let (aggs, mispredicts) = self.feedback.drain();
        self.predictor.with_learner(|l| {
            l.advance_clock(now);
            for (fp, agg) in &aggs {
                l.absorb(*fp, agg);
            }
            for (fp, size) in mispredicts.iter().chain(&pinned) {
                l.note_pinned(*fp, *size as u64);
            }
        });
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        // Only standalone cores built by tests are ever dropped; the
        // activated global one lives forever. The geometry was
        // validated at build; if it were somehow violated, leaking the
        // area beats panicking in a Drop on the allocator surface.
        let Ok(layout) = Layout::from_size_align(self.area_len, SEG_SIZE) else {
            return;
        };
        // SAFETY: base came from System.alloc with this exact layout
        // in build(), and dropping the core means no blocks from the
        // area are referenced any more.
        unsafe { System.dealloc(self.base as *mut u8, layout) };
    }
}

/// Reads the intrusive next link stored in a free block's first word.
///
/// # Safety
///
/// `block` must be a free block owned by the caller. Every block is
/// word-aligned by construction — segments are 64 KiB-aligned and
/// carved at `CLASS_SIZES` strides, all multiples of 8 — which is why
/// the alignment-widening cast below is sound.
#[inline]
#[expect(clippy::cast_ptr_alignment)]
#[expect(
    clippy::arithmetic_side_effects,
    reason = "`% align_of::<usize>()` divides by a nonzero constant, inside a debug assertion."
)]
unsafe fn link_read(block: *mut u8) -> usize {
    debug_assert_eq!(block as usize % std::mem::align_of::<usize>(), 0);
    // SAFETY: per the contract above; alignment by segment geometry.
    unsafe { block.cast::<usize>().read() }
}

/// Writes the intrusive next link into a free block's first word.
///
/// # Safety
///
/// Same contract as [`link_read`]: a caller-owned free block,
/// word-aligned by segment geometry.
#[inline]
#[expect(clippy::cast_ptr_alignment)]
#[expect(
    clippy::arithmetic_side_effects,
    reason = "`% align_of::<usize>()` divides by a nonzero constant, inside a debug assertion."
)]
unsafe fn link_write(block: *mut u8, next: usize) {
    debug_assert_eq!(block as usize % std::mem::align_of::<usize>(), 0);
    // SAFETY: per the contract above; alignment by segment geometry.
    unsafe { block.cast::<usize>().write(next) }
}

/// Pops a block from a central free list.
#[inline]
#[expect(
    clippy::arithmetic_side_effects,
    clippy::indexing_slicing,
    reason = "`class` is the class refill was asked for, a class_for result below NUM_CLASSES, \
              and both lists are [_; NUM_CLASSES]; `free_len[class] -= 1` pops a non-empty list \
              (head != 0) whose every block push_block counted in."
)]
fn pop_block(guard: &mut ShardInner, class: usize) -> Option<*mut u8> {
    let head = guard.free_head[class];
    if head == 0 {
        return None;
    }
    let block = head as *mut u8;
    // SAFETY: blocks on a central list are free, at least word-sized,
    // inside the reserved area, and only reachable under this shard's
    // lock; their first word is the next link written by push_block.
    guard.free_head[class] = unsafe { link_read(block) };
    guard.free_len[class] -= 1;
    Some(block)
}

/// Pushes a free block onto a central free list.
#[inline]
#[expect(
    clippy::indexing_slicing,
    reason = "`free_head[class]` / `free_len[class]`: class is read from the owning segment's \
              metadata, which is only ever written with a CLASS_SIZES index (< N_CLASSES) while \
              carving the segment; both arrays are [_; N_CLASSES]."
)]
#[expect(
    clippy::arithmetic_side_effects,
    reason = "`free_len[class] += 1` counts the blocks on one class list, at most the 2^27 \
              8-byte blocks of a 1 GiB area, below u32::MAX."
)]
fn push_block(guard: &mut ShardInner, class: usize, block: *mut u8) {
    // SAFETY: the caller owns this just-freed block (at least
    // word-sized, inside the reserved area); it becomes reachable
    // only through the list head guarded by this shard's lock.
    unsafe { link_write(block, guard.free_head[class]) };
    guard.free_head[class] = block as usize;
    guard.free_len[class] += 1;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::class_for_size;

    fn tiny() -> Inner {
        Inner::build(GallocConfig {
            shards: 2,
            segs_per_shard: 4,
            ..GallocConfig::default()
        })
        .expect("build")
    }

    #[test]
    fn refill_carves_and_recycles() {
        let inner = tiny();
        let class = class_for_size(64).unwrap();
        let mut out = [std::ptr::null_mut(); 8];
        let n = inner.refill(0, class, &mut out);
        assert_eq!(n, 8);
        for w in out.windows(2) {
            assert_eq!(
                w[1] as usize - w[0] as usize,
                64,
                "bump carving is contiguous"
            );
        }
        assert!(out.iter().all(|&p| inner.contains(p)));
        assert_eq!(inner.shard_of(out[0]), 0);
        assert_eq!(
            inner.seg_of(out[0]).state.load(Ordering::Relaxed),
            SEG_REGULAR
        );

        // Return them via the flush path and refill again: recycled,
        // not freshly carved.
        let (home, foreign) = inner.flush_blocks(0, &out);
        assert_eq!((home, foreign), (8, 0));
        let mut again = [std::ptr::null_mut(); 8];
        assert_eq!(inner.refill(0, class, &mut again), 8);
        let mut a: Vec<usize> = out.iter().map(|&p| p as usize).collect();
        let mut b: Vec<usize> = again.iter().map(|&p| p as usize).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "central list recycles the same blocks");
    }

    #[test]
    fn remote_push_reaches_the_owner() {
        let inner = tiny();
        let class = class_for_size(128).unwrap();
        let mut out = [std::ptr::null_mut(); 4];
        assert_eq!(inner.refill(1, class, &mut out), 4);
        // "Another thread" frees them remotely.
        for &p in &out {
            inner.remote_push(p);
        }
        let mut again = [std::ptr::null_mut(); 4];
        assert_eq!(inner.refill(1, class, &mut again), 4);
        assert_eq!(inner.counters.snapshot().remote_drained, 4);
    }

    #[test]
    fn flush_partitions_home_and_foreign() {
        let inner = tiny();
        let class = class_for_size(32).unwrap();
        let mut own = [std::ptr::null_mut(); 2];
        let mut other = [std::ptr::null_mut(); 2];
        assert_eq!(inner.refill(0, class, &mut own), 2);
        assert_eq!(inner.refill(1, class, &mut other), 2);
        let mixed = [own[0], other[0], own[1], other[1]];
        let (home, foreign) = inner.flush_blocks(0, &mixed);
        assert_eq!((home, foreign), (2, 2));
    }

    #[test]
    fn exhaustion_returns_partial_refills() {
        let inner = tiny();
        let class = class_for_size(2048).unwrap();
        // 4 segments * 32 blocks of 2048 per shard.
        let total = 4 * (SEG_SIZE / 2048);
        let mut blocks = vec![std::ptr::null_mut(); total + 8];
        let n = inner.refill(0, class, &mut blocks);
        assert_eq!(n, total, "refill stops at area exhaustion");
        // Shards do not steal from each other; an exhausted shard
        // reports 0 and the caller falls back to the system allocator.
        assert!(inner.alloc_lock_direct(class).is_none());
    }

    #[test]
    fn lock_direct_serves_from_shard_zero() {
        let inner = tiny();
        let class = class_for_size(8).unwrap();
        let p = inner.alloc_lock_direct(class).expect("block");
        assert!(inner.contains(p));
        assert_eq!(inner.shard_of(p), 0);
    }

    #[test]
    fn short_runs_recycle_segments_when_live_hits_zero() {
        let inner = tiny();
        let class = class_for_size(1024).unwrap();
        let (start, n, seg) = inner.short_refill(0, class, 16).expect("run");
        assert_eq!(n, 16);
        let meta = &inner.segs[seg as usize];
        assert_eq!(meta.state.load(Ordering::Relaxed), SEG_SHORT);
        assert_eq!(meta.live.load(Ordering::Relaxed), 16);

        // Free every block in the run; the segment is still the carve
        // target, so it must NOT reset.
        for i in 0..n {
            assert!(inner.short_free((start + i * 1024) as *mut u8));
        }
        assert_eq!(meta.live.load(Ordering::Relaxed), 0);
        assert_ne!(meta.state.load(Ordering::Relaxed), SEG_FREE);

        // Carve the rest of the segment out, free it all, and the
        // segment must make it back to the free list.
        let blocks_per_seg = SEG_SIZE / 1024;
        let (start2, n2, seg2) = inner
            .short_refill(0, class, blocks_per_seg - 16)
            .expect("rest of the segment");
        assert_eq!(seg2, seg, "same segment continues");
        assert_eq!(n2, blocks_per_seg - 16);
        for i in 0..n2 {
            assert!(inner.short_free((start2 + i * 1024) as *mut u8));
        }
        // Retired + live==0: reclaim was queued; the next refill that
        // needs a segment drains it.
        assert_eq!(meta.state.load(Ordering::Relaxed), SEG_SHORT_RECLAIM);
        let before = inner.counters.snapshot().seg_resets;
        // Exhaust the remaining free segs so the reclaim drain runs.
        for _ in 0..8 {
            let _ = inner.short_refill(0, class, blocks_per_seg);
        }
        assert!(inner.counters.snapshot().seg_resets > before);
    }

    #[test]
    fn short_free_underflow_is_counted_not_corrupting() {
        let inner = tiny();
        let class = class_for_size(512).unwrap();
        let (start, _, _) = inner.short_refill(0, class, 4).expect("run");
        let p = start as *mut u8;
        assert!(inner.short_free(p));
        assert!(inner.short_free(p)); // 3 blocks still live
        assert!(inner.short_free(p));
        assert!(inner.short_free(p)); // live hits 0
        assert!(!inner.short_free(p), "fifth free underflows");
        assert_eq!(inner.counters.snapshot().short_free_underflows, 1);
    }

    #[test]
    fn clock_flush_drives_epoch_ticks() {
        let inner = tiny();
        let epoch = inner.config.epoch.epoch_bytes;
        inner.flush_clock(epoch / 2);
        assert_eq!(inner.counters.snapshot().epoch_ticks, 0);
        inner.flush_clock(epoch);
        assert_eq!(inner.counters.snapshot().epoch_ticks, 1);
        // The learner saw the clock.
        assert!(inner.predictor.with_learner(|l| l.clock()) >= epoch);
    }
}
