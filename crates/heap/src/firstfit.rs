//! Knuth's first-fit allocator with boundary tags and a roving pointer.
//!
//! The allocation path is answered by one address-ordered tree over
//! the free blocks ([`FreeTree`]) in O(log n) instead of the paper's
//! linear scan, while every observable — placements, heap growth and
//! the [`OpCounts`] the Table 9 cost model consumes — stays
//! byte-identical to the linear implementation (retained as the test
//! oracle `LinearFirstFit` in `tests/support/linear.rs` and proven
//! equivalent by `tests/differential.rs`).

use crate::counts::OpCounts;
use crate::index::{Found, FreeTree, IndexStats};
use crate::Addr;
use lifepred_core::hash::IntMap;

/// Per-object header bytes (size + status word, boundary tag style).
pub const HEADER: u64 = 8;
/// Allocation alignment.
pub(crate) const ALIGN: u64 = 8;
/// Smallest splittable remainder (header plus one aligned word).
pub(crate) const MIN_SPLIT: u64 = 16;
/// Heap growth quantum — an early-90s `sbrk` page multiple.
pub const PAGE: u64 = 8192;

/// A simulated first-fit heap (Knuth, TAOCP vol. 1 §2.5), the paper's
/// baseline allocator and the general heap backing the arena
/// allocator.
///
/// Enhancements per Knuth: a freed block coalesces at once with the
/// free blocks on either side, and a *roving pointer* resumes each
/// search where the previous one ended so small blocks don't
/// accumulate at the front of the free list. Each block keeps Knuth's
/// boundary-tag header (`HEADER` bytes), but the free neighbours are
/// found by a walk of the free-block tree, not through the tags: one
/// descent yields the address predecessor and successor, in O(log n).
/// The heap grows in `PAGE`-byte (8 KB) increments.
///
/// The search itself runs on the same address-ordered tree of the free
/// blocks, a B+-tree whose internal entries carry each subtree's
/// largest block size and block count (`src/index.rs`): placements and
/// all [`OpCounts`] — including `search_steps`, the number of free
/// blocks the paper's *linear* scan would have examined — are identical
/// to the linear implementation, only the wall-clock cost per
/// allocation drops from O(free blocks) to O(log n).
///
/// Freeing an address that is not a live allocation of this heap
/// (never allocated, already freed, or pointing into the middle of a
/// block) is a **documented no-op** counted in
/// [`OpCounts::frees_invalid`], so a corrupted trace cannot poison the
/// tree or the boundary tags.
///
/// # Examples
///
/// ```
/// use lifepred_heap::FirstFit;
///
/// let mut heap = FirstFit::new();
/// let a = heap.alloc(100);
/// let b = heap.alloc(200);
/// heap.free(a);
/// heap.free(b);
/// assert_eq!(heap.live_blocks(), 0);
/// assert!(heap.max_heap_bytes() >= 300);
/// ```
#[derive(Debug, Clone)]
pub struct FirstFit {
    /// The free blocks, by address. With `allocated` they exactly tile
    /// `[base, brk)`, and no two of them touch.
    free: FreeTree,
    /// The allocated blocks: start address → block size.
    allocated: IntMap<u64, u64>,
    base: u64,
    brk: u64,
    max_brk: u64,
    rover: u64,
    /// The slot the rover pointed into when the last placement left
    /// it: the split's remainder, or the block after a block taken
    /// whole. A hint that lets the next search skip its descent.
    rover_at: Option<Found>,
    counts: OpCounts,
}

impl Default for FirstFit {
    fn default() -> Self {
        FirstFit::new()
    }
}

impl FirstFit {
    /// Creates an empty heap based at address 0.
    pub fn new() -> Self {
        FirstFit::with_base(0)
    }

    /// Creates an empty heap based at `base` (used when another
    /// allocator owns a disjoint part of the address space).
    pub(crate) fn with_base(base: u64) -> Self {
        FirstFit {
            free: FreeTree::new(),
            allocated: IntMap::default(),
            base,
            brk: base,
            max_brk: base,
            rover: base,
            rover_at: None,
            counts: OpCounts::default(),
        }
    }

    /// Allocates `size` bytes, returning the user address.
    pub fn alloc(&mut self, size: u32) -> Addr {
        self.counts.allocs += 1;
        let need = Self::block_size(size);
        let hit = match self.search(need) {
            Some(hit) => hit,
            // No fit: grow the heap so the topmost free region fits.
            None => self.grow_for(need),
        };
        self.place(hit, need)
    }

    /// Frees the block at `addr` (a value previously returned by
    /// [`FirstFit::alloc`]), coalescing with free neighbours.
    ///
    /// An `addr` that is not a live allocation of this heap — never
    /// allocated, already freed, or not a block boundary — is ignored
    /// and counted in [`OpCounts::frees_invalid`], so replaying a
    /// corrupted trace cannot corrupt the heap structures.
    pub fn free(&mut self, addr: Addr) {
        let start = addr.0.checked_sub(HEADER);
        let Some((start, size)) = start.and_then(|s| Some((s, self.allocated.remove(&s)?))) else {
            self.counts.frees_invalid += 1;
            return;
        };
        self.counts.frees += 1;
        // The blocks tile the heap, so a free neighbour is adjacent
        // exactly when its extent meets this block's. The walk returns
        // both with their leaf slots, which the coalesce below edits
        // through.
        let (pred, succ) = self.free.neighbours_path(start);
        let next = succ.filter(|n| n.addr == start + size);
        let prev = pred.filter(|p| p.addr + p.size == start);
        // Same order as the linear scan: absorb the next block first,
        // and pull a rover that pointed at an absorbed block back to
        // the survivor's start.
        let mut merged = size;
        if let Some(next) = next {
            merged += next.size;
            self.counts.coalesces += 1;
            if self.rover == next.addr {
                self.rover = start;
            }
        }
        if let Some(prev) = prev {
            merged += prev.size;
            self.counts.coalesces += 1;
            if self.rover == start {
                self.rover = prev.addr;
            }
        }
        match (prev, next) {
            // Grow the lower block first: an in-place edit moves no
            // slot, so the upper block's position stays valid for its
            // removal.
            (Some(prev), Some(next)) => {
                self.free.update_on_path(prev, prev.addr, merged);
                self.free.remove_on_path(next);
            }
            (Some(prev), None) => {
                self.free.update_on_path(prev, prev.addr, merged);
            }
            (None, Some(next)) => {
                self.free.update_on_path(next, start, merged);
            }
            // No free neighbour: the walk left `start`'s slot.
            (None, None) => {
                self.free.insert_on_path(start, size);
            }
        }
    }

    /// Current heap extent in bytes.
    pub fn heap_bytes(&self) -> u64 {
        self.brk - self.base
    }

    /// High-water heap extent in bytes (Table 8's measure).
    pub fn max_heap_bytes(&self) -> u64 {
        self.max_brk - self.base
    }

    /// Operation counters.
    pub fn counts(&self) -> &OpCounts {
        &self.counts
    }

    /// Work counters of the free-block tree (no linear-scan
    /// counterpart; exported as `lifepred_sim_*` metrics).
    pub(crate) fn index_stats(&self) -> IndexStats {
        self.free.stats()
    }

    /// Number of currently allocated blocks.
    pub fn live_blocks(&self) -> usize {
        self.allocated.len()
    }

    /// Bytes in allocated blocks, headers included.
    pub fn live_bytes(&self) -> u64 {
        self.allocated.values().sum()
    }

    pub(crate) fn block_size(size: u32) -> u64 {
        let need = u64::from(size) + HEADER;
        let rounded = need.div_ceil(ALIGN) * ALIGN;
        rounded.max(MIN_SPLIT)
    }

    /// First-fit search from the roving pointer, wrapping once — the
    /// tree's answer to the paper's linear scan: the free block to
    /// place into, its root path left for [`place`](Self::place).
    ///
    /// `search_steps` is charged with the number of free blocks the
    /// linear scan *would have examined*: every free block from the
    /// rover up to and including the found block (wrapping through the
    /// heap top), or every free block when nothing fits. Both figures
    /// fall out of the ranks the search walk sums, so the Table 9
    /// instruction model sees exactly the seed's numbers.
    fn search(&mut self, need: u64) -> Option<Found> {
        let (rover_rank, hit) = self.free.first_fit(self.rover, need, self.rover_at);
        let (examined, hit) = match hit {
            // Free blocks in [rover, hit].
            Some((hit, rank)) => (rank + 1 - rover_rank, Some(hit)),
            // Nothing at or above the rover fits; wrap to the base.
            // (A fitting block above the rover cannot exist, so the
            // unbounded second walk finds only below-rover blocks.)
            None => match self.free.first_fit(self.base, need, None).1 {
                // All free blocks at/above the rover failed, then the
                // linear scan re-starts at the base.
                Some((hit, rank)) => (self.free.len() - rover_rank + rank + 1, Some(hit)),
                // The linear scan examines every free block once
                // before giving up and growing the heap.
                None => (self.free.len(), None),
            },
        };
        self.counts.search_steps += examined as u64;
        hit
    }

    /// Allocates `need` bytes from the free block `hit`, splitting if
    /// the remainder is usable.
    fn place(&mut self, hit: Found, need: u64) -> Addr {
        let (addr, have) = (hit.addr, hit.size);
        debug_assert!(have >= need);
        // Resume the next search after this allocation.
        self.rover = addr + need;
        if have - need >= MIN_SPLIT {
            // The remainder keeps the block's place in address order,
            // and the rover points at it.
            self.rover_at = Some(self.free.update_on_path(hit, addr + need, have - need));
            self.allocated.insert(addr, need);
            self.counts.splits += 1;
        } else {
            // The whole block goes, slack included — the rover stays at
            // `addr + need`, up to 8 bytes short of the next block
            // (exactly where the linear scan leaves it; the `rover ==`
            // fix-ups in `free` depend on it). Nothing above? Wrap.
            self.free.remove_on_path(hit);
            self.rover_at = Some(hit);
            self.allocated.insert(addr, have);
            if addr + have == self.brk {
                self.rover = self.base;
            }
        }
        Addr(addr + HEADER)
    }

    /// Extends the heap until its topmost free block holds `need`
    /// bytes, returning that block.
    fn grow_for(&mut self, need: u64) -> Found {
        // Is the topmost block free? Then extend it, else append.
        let top = self.free.last().filter(|t| t.addr + t.size == self.brk);
        let existing = top.map_or(0, |t| t.size);
        let grow = (need - existing).div_ceil(PAGE) * PAGE;
        self.counts.page_grows += grow / PAGE;
        let start = self.brk;
        self.brk += grow;
        self.max_brk = self.max_brk.max(self.brk);
        match top {
            Some(top) => self.free.update_on_path(top, top.addr, existing + grow),
            // `last` left the slot past the topmost free block.
            None => self.free.insert_on_path(start, grow),
        }
    }

    /// Verifies the structural invariants of the heap; used by tests.
    ///
    /// # Panics
    ///
    /// Panics if blocks do not exactly tile `[base, brk)`, two free
    /// blocks are adjacent, or the free-block tree is malformed (address
    /// order, node occupancy, parent links, a stale first address,
    /// `count` or `max`).
    pub fn check_invariants(&self) {
        let free = self.free.check_invariants();
        let mut blocks: Vec<(u64, u64, bool)> = (free.iter().map(|&(a, s)| (a, s, true)))
            .chain(self.allocated.iter().map(|(&a, &s)| (a, s, false)))
            .collect();
        blocks.sort_unstable();
        let mut expected = self.base;
        let mut prev_free = false;
        for (addr, size, free) in blocks {
            assert_eq!(addr, expected, "gap or overlap at 0x{addr:x}");
            assert!(size > 0, "empty block at 0x{addr:x}");
            assert!(
                !(prev_free && free),
                "uncoalesced free blocks at 0x{addr:x}"
            );
            prev_free = free;
            expected = addr + size;
        }
        assert_eq!(expected, self.brk, "blocks do not reach brk");
        assert!(self.max_brk >= self.brk);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_roundtrip() {
        let mut h = FirstFit::new();
        let a = h.alloc(100);
        let b = h.alloc(50);
        assert_ne!(a, b);
        h.check_invariants();
        h.free(a);
        h.free(b);
        h.check_invariants();
        assert_eq!(h.live_blocks(), 0);
        // Everything coalesced back into one block.
        assert_eq!(h.free.len(), 1);
    }

    #[test]
    fn reuses_freed_space() {
        let mut h = FirstFit::new();
        let a = h.alloc(1000);
        h.free(a);
        let before = h.max_heap_bytes();
        for _ in 0..100 {
            let x = h.alloc(1000);
            h.free(x);
        }
        assert_eq!(h.max_heap_bytes(), before, "heap should not grow");
    }

    #[test]
    fn grows_in_pages() {
        let mut h = FirstFit::new();
        let _ = h.alloc(1);
        assert_eq!(h.heap_bytes(), PAGE);
        let _ = h.alloc(3 * PAGE as u32);
        assert_eq!(h.heap_bytes() % PAGE, 0);
    }

    #[test]
    fn splits_large_blocks() {
        let mut h = FirstFit::new();
        let a = h.alloc(4000);
        h.free(a);
        let _b = h.alloc(100);
        assert!(h.counts().splits >= 1);
        h.check_invariants();
    }

    #[test]
    fn coalesces_both_neighbours() {
        let mut h = FirstFit::new();
        let a = h.alloc(100);
        let b = h.alloc(100);
        let c = h.alloc(100);
        h.free(a);
        h.free(c);
        h.free(b); // coalesces with both a and c
        h.check_invariants();
        assert!(h.counts().coalesces >= 2);
    }

    #[test]
    fn double_free_is_a_counted_noop() {
        let mut h = FirstFit::new();
        let a = h.alloc(8);
        h.free(a);
        let snapshot = *h.counts();
        h.free(a); // second free: ignored, counted
        assert_eq!(h.counts().frees, snapshot.frees);
        assert_eq!(h.counts().frees_invalid, snapshot.frees_invalid + 1);
        h.check_invariants();
    }

    #[test]
    fn invalid_frees_are_counted_noops() {
        let mut h = FirstFit::new();
        let a = h.alloc(64);
        // Never-allocated address way above the heap.
        h.free(Addr(1 << 30));
        // Mid-block address (not a block boundary).
        h.free(Addr(a.0 + 8));
        // Address below the header offset (would underflow).
        h.free(Addr(HEADER - 1));
        assert_eq!(h.counts().frees_invalid, 3);
        assert_eq!(h.counts().frees, 0);
        h.check_invariants();
        // The heap still works and the live block is intact.
        h.free(a);
        assert_eq!(h.counts().frees, 1);
        assert_eq!(h.live_blocks(), 0);
        h.check_invariants();
    }

    #[test]
    fn addresses_are_aligned() {
        let mut h = FirstFit::new();
        for size in [1u32, 7, 13, 100, 255] {
            let a = h.alloc(size);
            assert_eq!(a.0 % ALIGN, 0, "unaligned address for size {size}");
        }
    }

    #[test]
    fn index_counters_advance() {
        let mut h = FirstFit::new();
        let a = h.alloc(100);
        h.free(a);
        let _ = h.alloc(100); // served from the tree
        let stats = h.index_stats();
        assert!(stats.hits >= 1, "{stats:?}");
        assert!(stats.node_visits >= 1, "{stats:?}");
    }

    /// Edits repair only the summaries that change: a churn of 2¹⁴
    /// alloc/free pairs over about 1000 live blocks rescans a node's
    /// entries about once every five pairs. Rescanning every ancestor
    /// of every edit costs about two per pair, twice the bound.
    #[test]
    fn churn_recomputes_few_summaries_per_pair() {
        const PAIRS: u64 = 1 << 14;
        const BOUND: u64 = 1;
        let mut h = FirstFit::new();
        let mut live = Vec::new();
        let mut x = 0x5eed_u64;
        let mut next = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as usize
        };
        for _ in 0..1000 {
            live.push(h.alloc((next() % 2000 + 1) as u32));
        }
        let before = h.index_stats().recomputes;
        for _ in 0..PAIRS {
            let r = next();
            h.free(live.swap_remove(r % live.len()));
            live.push(h.alloc((next() % 2000 + 1) as u32));
        }
        h.check_invariants();
        assert!(h.free.len() > 100, "{} free blocks", h.free.len());
        let recomputes = h.index_stats().recomputes - before;
        assert!(
            recomputes <= BOUND * PAIRS,
            "{recomputes} summary recomputations over {PAIRS} pairs"
        );
    }

    #[test]
    fn interleaved_stress_preserves_invariants() {
        let mut h = FirstFit::new();
        let mut live = Vec::new();
        let mut x = 12345u64;
        for i in 0..2000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let r = (x >> 33) as usize;
            if live.is_empty() || !r.is_multiple_of(3) {
                live.push(h.alloc((r % 500 + 1) as u32));
            } else {
                let idx = r % live.len();
                h.free(live.swap_remove(idx));
            }
            if i % 256 == 0 {
                h.check_invariants();
            }
        }
        for a in live {
            h.free(a);
        }
        h.check_invariants();
        assert_eq!(h.live_blocks(), 0);
    }
}
