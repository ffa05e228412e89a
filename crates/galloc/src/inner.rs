//! The process-wide allocator core: one reserved area split into
//! per-shard segment runs, each with central per-class free lists
//! behind its shard's `Mutex`.
//!
//! Every free list here is touched only under its shard's lock, and a
//! freed block always goes back to its owning shard's list, whichever
//! thread frees it. The lock-free *hot* path lives in [`crate::tls`]
//! and only calls down here on magazine refills/flushes. No function
//! in this module allocates while holding a shard lock — central
//! lists are intrusive (a free block's first word links to the next),
//! so a nested allocation can never deadlock on the lock its caller
//! holds.

// Library code only: in-file `#[cfg(test)]` modules are exempt.
#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]

use crate::classes::{CLASS_SIZES, NUM_CLASSES};
use crate::config::{GallocConfig, SEG_SHIFT, SEG_SIZE};
use crate::counters::GCounters;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

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

/// The allocator core behind [`crate::LifepredGlobal`].
#[derive(Debug)]
pub struct Inner {
    base: usize,
    area_len: usize,
    /// Per shard, one lock over the state of its contiguous run of
    /// segments: central free lists, bump cursors, free segments.
    shards: Box<[CacheLine<Mutex<ShardInner>>]>,
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
        let shards: Box<[CacheLine<Mutex<ShardInner>>]> = (0..config.shards)
            .map(|s| {
                // Chain this shard's segments into its free list.
                let first = s * per_shard;
                for i in first..first + per_shard - 1 {
                    // Relaxed: the area is not shared until `build` returns.
                    segs[i].next.store((i + 2) as u32, Ordering::Relaxed);
                }
                CacheLine(Mutex::new(ShardInner {
                    free_head: [0; NUM_CLASSES],
                    free_len: [0; NUM_CLASSES],
                    free_segs: (first + 1) as u32,
                    bump: [Bump::default(); NUM_CLASSES],
                }))
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

    /// Refills `out` with blocks of `class` from `shard`, returning
    /// how many were produced (possibly 0 when the area is
    /// exhausted). Order of supply: central free list (which also holds
    /// the blocks foreign threads freed), then bump carving (taking
    /// fresh segments as needed).
    #[expect(
        clippy::indexing_slicing,
        reason = "`out[n]` is guarded by the `n < out.len()` loop condition on every arm; \
                  `guard.bump[class]` and `CLASS_SIZES[class]` index [_; N_CLASSES] arrays \
                  with a class the caller derived from class_for (< N_CLASSES by construction). \
                  All arms dead unless a class invariant broke — aborting under the shard lock \
                  beats carving blocks with a wild size."
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
        let mut guard = self.lock(shard);
        let guard = &mut *guard;
        let mut n = 0;
        while n < out.len() {
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

    /// Returns freed `blocks` (at most a magazine's worth) to their
    /// owners' central lists: one lock per owning shard, home shard
    /// included. Returns how many blocks went to a shard other than
    /// `home`.
    #[expect(
        clippy::indexing_slicing,
        reason = "`pending[..n]` and `pending[kept]`: n starts at blocks.len() <= MAG_CAP \
                  (callers pass magazine slices; copy_from_slice panics otherwise), only shrinks, \
                  and kept < n. A broken magazine invariant aborts before any list is touched."
    )]
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "`kept` and `foreign` count blocks of one magazine slice, at most MAG_CAP, and \
                  `n - kept` is non-negative because kept only counts blocks of pending[..n]."
    )]
    pub fn flush_blocks(&self, home: usize, blocks: &[*mut u8]) -> u64 {
        let mut pending = [std::ptr::null_mut(); crate::tls::MAG_CAP];
        let mut n = blocks.len();
        pending[..n].copy_from_slice(blocks);
        let mut foreign = 0;
        // Each pass locks the owner of the first pending block, returns
        // every block that shard owns, and keeps the rest for the next.
        while n > 0 {
            let owner = self.shard_of(pending[0]);
            let mut guard = self.lock(owner);
            let mut kept = 0;
            for i in 0..n {
                let block = pending[i];
                if self.shard_of(block) == owner {
                    let class = self.seg_of(block).class.load(Ordering::Relaxed) as usize;
                    push_block(&mut guard, class, block);
                } else {
                    pending[kept] = block;
                    kept += 1;
                }
            }
            drop(guard);
            if owner != home {
                foreign += (n - kept) as u64;
            }
            n = kept;
        }
        foreign
    }

    /// Returns one freed block to its owner's central list without
    /// touching thread-local state (allocator re-entry and
    /// TLS-teardown path).
    pub fn free_lock_direct(&self, block: *mut u8) {
        self.flush_blocks(self.shard_of(block), &[block]);
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

    /// Locks shard `shard`'s central lists, poisoned or not: the
    /// allocator must not panic.
    #[expect(
        clippy::indexing_slicing,
        reason = "`shards[shard]`: callers pass a home shard (reduced modulo the shard count) or \
                  a shard_of result (a segment index shifted down to its shard), both below the \
                  shard count."
    )]
    fn lock(&self, shard: usize) -> MutexGuard<'_, ShardInner> {
        self.shards[shard]
            .0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
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
    use crate::tls::{MAG_BATCH, MAG_CAP};

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
        assert_eq!(inner.flush_blocks(0, &out), 0);
        let mut again = [std::ptr::null_mut(); 8];
        assert_eq!(inner.refill(0, class, &mut again), 8);
        assert_eq!(
            sorted(&out),
            sorted(&again),
            "central list recycles the same blocks"
        );
    }

    fn sorted(blocks: &[*mut u8]) -> Vec<usize> {
        let mut v: Vec<usize> = blocks.iter().map(|&p| p as usize).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn a_lone_free_reaches_its_owner() {
        let inner = tiny();
        let class = class_for_size(128).unwrap();
        let mut out = [std::ptr::null_mut(); 4];
        assert_eq!(inner.refill(1, class, &mut out), 4);
        // A thread without a usable cache frees one of shard 1's blocks.
        inner.free_lock_direct(out[2]);
        let mut again = [std::ptr::null_mut(); 1];
        assert_eq!(inner.refill(1, class, &mut again), 1);
        assert_eq!(
            again[0], out[2],
            "the owner's next refill hands the block back"
        );
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
        assert_eq!(
            inner.flush_blocks(0, &mixed),
            2,
            "two blocks went to a foreign shard"
        );
        // Each owner's central list holds its blocks at once: the next
        // refills return exactly them, with nothing carved.
        let mut back = [std::ptr::null_mut(); 2];
        assert_eq!(inner.refill(1, class, &mut back), 2);
        assert_eq!(sorted(&back), sorted(&other));
        assert_eq!(inner.refill(0, class, &mut back), 2);
        assert_eq!(sorted(&back), sorted(&own));
    }

    /// Four threads, each refilling from its own shard and flushing
    /// batches that mix its own blocks with blocks its peers handed it.
    /// Afterwards every shard is refilled until dry: each block of the
    /// area must come back exactly once.
    #[test]
    fn concurrent_flushes_conserve_every_block() {
        const SHARDS: usize = 4;
        const SEGS: usize = 4;
        const ROUNDS: usize = 4000;
        let inner = Inner::build(GallocConfig {
            shards: SHARDS,
            segs_per_shard: SEGS,
        })
        .expect("build");
        let class = class_for_size(64).unwrap();
        // Blocks in flight to each thread, as addresses.
        let inboxes: Vec<Mutex<Vec<usize>>> = (0..SHARDS).map(|_| Mutex::default()).collect();
        std::thread::scope(|s| {
            for home in 0..SHARDS {
                let (inner, inboxes) = (&inner, &inboxes);
                s.spawn(move || {
                    let mut rng = (home as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    let mut batch = [std::ptr::null_mut(); MAG_CAP];
                    for _ in 0..ROUNDS {
                        rng ^= rng << 13;
                        rng ^= rng >> 7;
                        rng ^= rng << 17;
                        let n = inner.refill(home, class, &mut batch[..MAG_BATCH]);
                        assert_eq!(n, MAG_BATCH);
                        assert!(batch[..n].iter().all(|&p| inner.shard_of(p) == home));
                        // Half go to a peer unless its inbox is full (a
                        // finished peer drains nothing); the rest are
                        // flushed with whatever the peers sent here.
                        let peer = (home + 1 + rng as usize % (SHARDS - 1)) % SHARDS;
                        let mut outbox = inboxes[peer].lock().unwrap();
                        let keep = if outbox.len() < 2 * MAG_CAP { n / 2 } else { n };
                        outbox.extend(batch[keep..n].iter().map(|&p| p as usize));
                        drop(outbox);
                        let mut len = keep;
                        let mut inbox = inboxes[home].lock().unwrap();
                        while len < MAG_CAP {
                            let Some(addr) = inbox.pop() else { break };
                            batch[len] = addr as *mut u8;
                            len += 1;
                        }
                        drop(inbox);
                        let foreign = inner.flush_blocks(home, &batch[..len]);
                        assert_eq!(foreign, (len - keep) as u64);
                    }
                });
            }
        });
        for inbox in inboxes {
            let rest: Vec<*mut u8> = inbox
                .into_inner()
                .unwrap()
                .into_iter()
                .map(|a| a as *mut u8)
                .collect();
            for chunk in rest.chunks(MAG_CAP) {
                inner.flush_blocks(0, chunk);
            }
        }
        let capacity = SHARDS * SEGS * (SEG_SIZE / 64);
        let mut seen = std::collections::HashSet::new();
        let mut out = [std::ptr::null_mut(); 64];
        for shard in 0..SHARDS {
            loop {
                let n = inner.refill(shard, class, &mut out);
                if n == 0 {
                    break;
                }
                for &p in &out[..n] {
                    assert_eq!(inner.shard_of(p), shard);
                    assert!(seen.insert(p as usize), "block {p:?} came back twice");
                }
            }
        }
        assert_eq!(seen.len(), capacity, "every block of the area comes back");
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
