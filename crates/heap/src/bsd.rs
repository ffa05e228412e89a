//! The 4.2BSD power-of-two bucket allocator.

use crate::counts::OpCounts;
use crate::hash::AddrMap;
use crate::Addr;

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
///
/// # Examples
///
/// ```
/// use lifepred_heap::BsdMalloc;
///
/// let mut heap = BsdMalloc::new();
/// let a = heap.alloc(10);
/// heap.free(a);
/// let b = heap.alloc(12); // same bucket: reuses the chunk
/// assert_eq!(a, b);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BsdMalloc {
    /// Free chunks per bucket index (bucket = MIN_BUCKET << index).
    free_lists: Vec<Vec<u64>>,
    /// Live chunk → bucket index (simulates reading the header).
    live: AddrMap<u64, usize>,
    brk: u64,
    max_brk: u64,
    counts: OpCounts,
}

impl BsdMalloc {
    /// Creates an empty heap.
    pub fn new() -> Self {
        BsdMalloc::default()
    }

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

    /// Frees a chunk returned by [`BsdMalloc::alloc`].
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
    pub(crate) fn max_heap_bytes(&self) -> u64 {
        self.max_brk
    }

    /// Operation counters.
    pub(crate) fn counts(&self) -> &OpCounts {
        &self.counts
    }

    /// Number of live allocations.
    pub fn live_blocks(&self) -> usize {
        self.live.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_rounding() {
        assert_eq!(BsdMalloc::bucket_index(1), 0); // 16
        assert_eq!(BsdMalloc::bucket_index(12), 0); // 12+4 = 16
        assert_eq!(BsdMalloc::bucket_index(13), 1); // 17 -> 32
        assert_eq!(BsdMalloc::bucket_index(28), 1); // 32
        assert_eq!(BsdMalloc::bucket_index(100), 3); // 104 -> 128
    }

    #[test]
    fn reuses_freed_chunks_lifo() {
        let mut h = BsdMalloc::new();
        let a = h.alloc(20);
        let b = h.alloc(20);
        h.free(b);
        h.free(a);
        assert_eq!(h.alloc(20), a);
        assert_eq!(h.alloc(20), b);
    }

    #[test]
    fn carving_fills_free_list() {
        let mut h = BsdMalloc::new();
        let _ = h.alloc(12); // 16-byte bucket: one carve yields 256 chunks
        assert_eq!(h.counts().page_carves, 1);
        for _ in 0..255 {
            let _ = h.alloc(12);
        }
        assert_eq!(h.counts().page_carves, 1, "page should cover 256 allocs");
        let _ = h.alloc(12);
        assert_eq!(h.counts().page_carves, 2);
    }

    #[test]
    fn never_shrinks() {
        let mut h = BsdMalloc::new();
        let addrs: Vec<_> = (0..100).map(|_| h.alloc(1000)).collect();
        let peak = h.heap_bytes();
        for a in addrs {
            h.free(a);
        }
        assert_eq!(h.heap_bytes(), peak);
        assert_eq!(h.live_blocks(), 0);
    }

    #[test]
    fn large_objects_get_own_extent() {
        let mut h = BsdMalloc::new();
        let a = h.alloc(10_000); // 10004 -> 16384 bucket
        assert!(h.heap_bytes() >= 16384);
        h.free(a);
        let b = h.alloc(9_000); // same bucket
        assert_eq!(a, b);
    }

    #[test]
    fn invalid_frees_are_counted_noops() {
        let mut h = BsdMalloc::new();
        let a = h.alloc(8);
        let b = h.alloc(8);
        h.free(a);
        h.free(a); // double free
        h.free(Addr(b.0 + 4)); // not a chunk start
        h.free(Addr(1 << 30)); // never allocated
        h.free(Addr(HEADER - 1)); // below the header offset
        assert_eq!(h.counts().frees, 1);
        assert_eq!(h.counts().frees_invalid, 4);
        // The chunk went back to its free list once, and `b` is intact.
        assert_eq!(h.alloc(8), a);
        assert_ne!(h.alloc(8), a);
        h.free(b);
        assert_eq!(h.counts().frees, 2);
        assert_eq!(h.live_blocks(), 2);
    }
}
