//! The process-wide allocator core: one reserved area split into
//! per-shard segment runs, central per-class free lists and lock-free
//! remote-free stacks.
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
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU32, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Segment is unassigned (on a shard's free-segment list).
pub const SEG_FREE: u8 = 0;
/// Segment is carved into regular blocks recycled via free lists.
pub const SEG_REGULAR: u8 = 1;

/// Per-segment metadata, indexed by `(addr - base) >> SEG_SHIFT`.
///
/// `state` and `class` are atomics because the free path reads them
/// without taking the owning shard's lock.
#[derive(Debug)]
pub struct SegMeta {
    /// One of the `SEG_*` states.
    pub state: AtomicU8,
    /// Size class the segment is carved for.
    pub class: AtomicU8,
    /// Intrusive link (segment index + 1, 0 = nil) for the
    /// free-segment list.
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
    bump: [Bump; NUM_CLASSES],
}

/// One shard: a contiguous run of segments with central free lists.
#[derive(Debug)]
pub struct Shard {
    inner: Mutex<ShardInner>,
    /// Treiber stack of cross-thread-freed regular blocks (head =
    /// block address, 0 = empty). Pushers CAS the head; only the
    /// owner drains, with a single `swap`, so the stack is ABA-free.
    remote: AtomicUsize,
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
                        bump: [Bump::default(); NUM_CLASSES],
                    }),
                    remote: AtomicUsize::new(0),
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

    /// Takes a free segment of `guard`'s shard and carves it for
    /// `class`. Returns its index.
    #[expect(
        clippy::arithmetic_side_effects,
        clippy::indexing_slicing,
        reason = "`free_segs - 1` runs after the `free_segs == 0` return, and the result indexes \
                  `segs` because the free-segment list only ever links a real segment index + 1 \
                  (build)."
    )]
    fn pop_free_seg(&self, guard: &mut ShardInner, class: usize) -> Option<usize> {
        if guard.free_segs == 0 {
            return None;
        }
        let seg = (guard.free_segs - 1) as usize;
        let meta = &self.segs[seg];
        guard.free_segs = meta.next.load(Ordering::Relaxed);
        meta.class.store(class as u8, Ordering::Relaxed);
        // Release: the free path reads state/class without the lock.
        meta.state.store(SEG_REGULAR, Ordering::Release);
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
                  `guard.bump[class]` and `CLASS_SIZES[class]` index [_; N_CLASSES] arrays \
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
            if guard.bump[class].cursor + size > guard.bump[class].end {
                match self.pop_free_seg(guard, class) {
                    Some(seg) => {
                        let bump = &mut guard.bump[class];
                        bump.cursor = self.seg_base(seg);
                        bump.end = bump.cursor + SEG_SIZE;
                    }
                    None => break,
                }
            }
            let bump = &mut guard.bump[class];
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

    /// Frees an in-area pointer: into the thread cache when its
    /// segment is carved, otherwise counted in `wild_frees` and
    /// dropped (no block of this allocator lives in an uncarved
    /// segment, so dropping it is the safest response).
    pub fn free(&self, ptr: *mut u8) {
        let meta = self.seg_of(ptr);
        if meta.state.load(Ordering::Acquire) == SEG_REGULAR {
            crate::tls::free_small(self, ptr, meta.class.load(Ordering::Relaxed) as usize);
        } else {
            self.counters.wild_frees.fetch_add(1, Ordering::Relaxed);
        }
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
    fn free_into_an_uncarved_segment_is_a_counted_wild_free() {
        let inner = tiny();
        let class = class_for_size(64).unwrap();
        // Shard 0's last segment: the free-segment list hands out its
        // first segment first, so nothing has carved this one.
        let wild = (inner.seg_base(3) + 64) as *mut u8;
        assert!(inner.contains(wild));
        assert_eq!(inner.seg_of(wild).state.load(Ordering::Relaxed), SEG_FREE);
        inner.free(wild);
        assert_eq!(inner.counters.snapshot().wild_frees, 1);
        assert_eq!(inner.seg_of(wild).state.load(Ordering::Relaxed), SEG_FREE);
        // The dropped pointer left the shard intact.
        let p = inner.alloc_lock_direct(class).expect("still served");
        assert!(inner.contains(p));
        assert_eq!(inner.seg_of(p).state.load(Ordering::Relaxed), SEG_REGULAR);
    }
}
