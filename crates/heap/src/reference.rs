//! The seed's linear first-fit scan, retained verbatim as a
//! differential oracle.
//!
//! [`LinearFirstFit`] is the paper-faithful O(free blocks) roving scan
//! that [`FirstFit`](crate::FirstFit) replaced with a tree search.
//! It exists so the equivalence claim stays *testable* forever:
//! `tests/differential.rs` replays randomized traces and every
//! workload trace through both implementations and asserts identical
//! placements, [`OpCounts`] and high-water marks, and
//! `benches/replay.rs` uses it as the "before" side of the recorded
//! speedup. It is not part of the simulation API proper — use
//! [`FirstFit`](crate::FirstFit).

use crate::counts::OpCounts;
use crate::firstfit::{ALIGN, HEADER, MIN_SPLIT, PAGE};
use crate::Addr;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy)]
struct Block {
    size: u64,
    free: bool,
}

/// The pre-index first-fit heap: identical observable behaviour to
/// [`FirstFit`](crate::FirstFit), linear search cost.
#[derive(Debug, Clone)]
pub struct LinearFirstFit {
    blocks: BTreeMap<u64, Block>,
    base: u64,
    brk: u64,
    max_brk: u64,
    rover: u64,
    counts: OpCounts,
}

impl Default for LinearFirstFit {
    fn default() -> Self {
        LinearFirstFit::new()
    }
}

impl LinearFirstFit {
    /// Creates an empty heap based at address 0.
    pub fn new() -> Self {
        LinearFirstFit::with_base(0)
    }

    /// Creates an empty heap based at `base`.
    pub fn with_base(base: u64) -> Self {
        LinearFirstFit {
            blocks: BTreeMap::new(),
            base,
            brk: base,
            max_brk: base,
            rover: base,
            counts: OpCounts::default(),
        }
    }

    /// Allocates `size` bytes, returning the user address.
    pub fn alloc(&mut self, size: u32) -> Addr {
        self.counts.allocs += 1;
        let need = Self::block_size(size);

        if let Some(addr) = self.search(need) {
            return self.place(addr, need);
        }
        let addr = self.grow_for(need);
        self.place(addr, need)
    }

    /// Frees the block at `addr`, coalescing with free neighbours.
    /// Invalid addresses are counted no-ops, exactly as in
    /// [`FirstFit::free`](crate::FirstFit::free).
    pub fn free(&mut self, addr: Addr) {
        let Some(start) = addr.0.checked_sub(HEADER) else {
            self.counts.frees_invalid += 1;
            return;
        };
        match self.blocks.get_mut(&start) {
            Some(block) if !block.free => block.free = true,
            _ => {
                self.counts.frees_invalid += 1;
                return;
            }
        }
        self.counts.frees += 1;
        let mut start = start;
        let mut size = self.blocks[&start].size;

        // Coalesce with the next block.
        let next = start + size;
        if let Some(&Block {
            size: nsize,
            free: true,
        }) = self.blocks.get(&next)
        {
            self.blocks.remove(&next);
            size += nsize;
            self.blocks.get_mut(&start).expect("block exists").size = size;
            self.counts.coalesces += 1;
            if self.rover == next {
                self.rover = start;
            }
        }
        // Coalesce with the previous block.
        if let Some((
            &paddr,
            &Block {
                size: psize,
                free: true,
            },
        )) = self.blocks.range(..start).next_back()
        {
            if paddr + psize == start {
                self.blocks.remove(&start);
                self.blocks.get_mut(&paddr).expect("block exists").size = psize + size;
                self.counts.coalesces += 1;
                if self.rover == start {
                    self.rover = paddr;
                }
                start = paddr;
            }
        }
        let _ = start;
    }

    /// Current heap extent in bytes.
    pub fn heap_bytes(&self) -> u64 {
        self.brk - self.base
    }

    /// High-water heap extent in bytes.
    pub fn max_heap_bytes(&self) -> u64 {
        self.max_brk - self.base
    }

    /// Operation counters.
    pub fn counts(&self) -> &OpCounts {
        &self.counts
    }

    /// Number of currently allocated blocks.
    pub fn live_blocks(&self) -> usize {
        self.blocks.values().filter(|b| !b.free).count()
    }

    /// Bytes in allocated blocks, headers included.
    pub fn live_bytes(&self) -> u64 {
        let live = self.blocks.values().filter(|b| !b.free);
        live.map(|b| b.size).sum()
    }

    fn block_size(size: u32) -> u64 {
        let need = u64::from(size) + HEADER;
        let rounded = need.div_ceil(ALIGN) * ALIGN;
        rounded.max(MIN_SPLIT)
    }

    /// First-fit search from the roving pointer, wrapping once — the
    /// paper's linear free-list walk.
    fn search(&mut self, need: u64) -> Option<u64> {
        let rover = self.rover;
        let mut found = None;
        for (&addr, block) in self.blocks.range(rover..) {
            if block.free {
                self.counts.search_steps += 1;
                if block.size >= need {
                    found = Some(addr);
                    break;
                }
            }
        }
        if found.is_none() {
            for (&addr, block) in self.blocks.range(..rover) {
                if block.free {
                    self.counts.search_steps += 1;
                    if block.size >= need {
                        found = Some(addr);
                        break;
                    }
                }
            }
        }
        found
    }

    /// Allocates `need` bytes from the free block at `addr`, splitting
    /// if the remainder is usable.
    fn place(&mut self, addr: u64, need: u64) -> Addr {
        let block = self.blocks[&addr];
        debug_assert!(block.free && block.size >= need);
        if block.size - need >= MIN_SPLIT {
            self.blocks.insert(
                addr + need,
                Block {
                    size: block.size - need,
                    free: true,
                },
            );
            self.blocks.insert(
                addr,
                Block {
                    size: need,
                    free: false,
                },
            );
            self.counts.splits += 1;
        } else {
            self.blocks.get_mut(&addr).expect("block exists").free = false;
        }
        // Resume the next search after this block.
        self.rover = addr + need;
        if self.blocks.range(self.rover..).next().is_none() {
            self.rover = self.base;
        }
        Addr(addr + HEADER)
    }

    /// Extends the heap until its topmost free block holds `need`
    /// bytes, returning that block's address.
    fn grow_for(&mut self, need: u64) -> u64 {
        let top = self.blocks.iter().next_back().map(|(&a, b)| (a, *b));
        let (start, existing) = match top {
            Some((addr, block)) if block.free && addr + block.size == self.brk => {
                (addr, block.size)
            }
            _ => (self.brk, 0),
        };
        let missing = need - existing;
        let grow = missing.div_ceil(PAGE) * PAGE;
        self.counts.page_grows += grow / PAGE;
        self.brk += grow;
        self.max_brk = self.max_brk.max(self.brk);
        self.blocks.insert(
            start,
            Block {
                size: existing + grow,
                free: true,
            },
        );
        start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_reference_basic_roundtrip() {
        let mut h = LinearFirstFit::new();
        let a = h.alloc(100);
        let b = h.alloc(50);
        h.free(a);
        h.free(b);
        assert_eq!(h.live_blocks(), 0);
        assert_eq!(h.heap_bytes(), PAGE);
    }

    #[test]
    fn linear_reference_counts_invalid_frees() {
        let mut h = LinearFirstFit::new();
        let a = h.alloc(8);
        h.free(a);
        h.free(a);
        assert_eq!(h.counts().frees, 1);
        assert_eq!(h.counts().frees_invalid, 1);
    }
}
