//! The map-keyed 4.2BSD bucket allocator, retained as a differential
//! oracle.
//!
//! [`MapBsdMalloc`] is [`BsdMalloc`](lifepred_heap::BsdMalloc) as it was
//! when it looked each freed chunk's bucket up in a live-chunk map
//! instead of being handed the size. The map lets it refuse a double
//! free, which the size-keyed heap cannot see. `tests/bsd_differential.rs`
//! drives both through the same scripts of valid frees and frees no
//! chunk can match, and asserts identical addresses, [`OpCounts`] and
//! heap sizes. It is not part of the simulation API.
//!
//! Shared by path (`#[path = ...]`), so it names its dependencies by
//! their crate names. It keeps its own copies of the bucket geometry
//! below: if they ever disagree with `BsdMalloc`'s, the differential
//! fails.

use lifepred_core::hash::IntMap;
use lifepred_heap::{Addr, OpCounts};

/// Per-object header bytes (the classic BSD `union overhead`).
const HEADER: u64 = 4;
/// Smallest bucket (bytes, header included).
const MIN_BUCKET: u64 = 16;
/// Page size used when carving buckets.
const PAGE: u64 = 4096;

/// A simulated 4.2BSD `malloc`: requests round up to a power of two
/// (header included), each size class keeps a free list, pages are
/// carved into chunks on demand, and memory is never coalesced or
/// returned.
///
/// This is the Table 9 CPU baseline: very fast (bucket pop / push) but
/// memory-hungry.
#[derive(Debug, Clone, Default)]
pub struct MapBsdMalloc {
    /// Free chunks per bucket index (bucket = MIN_BUCKET << index).
    free_lists: Vec<Vec<u64>>,
    /// Live chunk → bucket index (simulates reading the header).
    live: IntMap<u64, usize>,
    brk: u64,
    max_brk: u64,
    counts: OpCounts,
}

impl MapBsdMalloc {
    fn bucket_index(size: u32) -> usize {
        let need = (u64::from(size) + HEADER).max(MIN_BUCKET);
        let bucket = need.next_power_of_two();
        (bucket.trailing_zeros() - MIN_BUCKET.trailing_zeros()) as usize
    }

    fn bucket_bytes(index: usize) -> u64 {
        MIN_BUCKET << index
    }

    /// Allocates `size` bytes.
    pub fn alloc(&mut self, size: u32) -> Addr {
        self.counts.allocs += 1;
        let idx = Self::bucket_index(size);
        if self.free_lists.len() <= idx {
            self.free_lists.resize_with(idx + 1, Vec::new);
        }
        if let Some(addr) = self.free_lists[idx].pop() {
            self.counts.bucket_pops += 1;
            self.live.insert(addr, idx);
            return Addr(addr + HEADER);
        }
        // Carve a fresh page (or a single chunk, if larger than a page).
        self.counts.page_carves += 1;
        let bucket = Self::bucket_bytes(idx);
        let grow = bucket.max(PAGE);
        let start = self.brk;
        self.brk += grow;
        self.max_brk = self.max_brk.max(self.brk);
        let chunks = (grow / bucket).max(1);
        for i in (1..chunks).rev() {
            self.free_lists[idx].push(start + i * bucket);
        }
        self.live.insert(start, idx);
        Addr(start + HEADER)
    }

    /// Frees a chunk returned by [`MapBsdMalloc::alloc`].
    ///
    /// An `addr` that is not a live allocation of this heap — never
    /// allocated, already freed, or not a chunk start — is ignored and
    /// counted in [`OpCounts::frees_invalid`].
    pub fn free(&mut self, addr: Addr) {
        let start = addr.0.checked_sub(HEADER);
        let Some((start, idx)) = start.and_then(|s| Some((s, self.live.remove(&s)?))) else {
            self.counts.frees_invalid += 1;
            return;
        };
        self.counts.frees += 1;
        self.free_lists[idx].push(start);
    }

    /// Current heap extent in bytes.
    pub fn heap_bytes(&self) -> u64 {
        self.brk
    }

    /// High-water heap extent in bytes.
    pub fn max_heap_bytes(&self) -> u64 {
        self.max_brk
    }

    /// Operation counters.
    pub fn counts(&self) -> &OpCounts {
        &self.counts
    }

    /// Number of live allocations.
    pub fn live_blocks(&self) -> usize {
        self.live.len()
    }
}
