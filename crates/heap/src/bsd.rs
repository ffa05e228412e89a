//! The 4.2BSD power-of-two bucket allocator.

use crate::counts::OpCounts;
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
/// heap.free(a, 10);
/// let b = heap.alloc(12); // same bucket: reuses the chunk
/// assert_eq!(a, b);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BsdMalloc {
    /// Free chunks per bucket index (bucket = MIN_BUCKET << index).
    free_lists: Vec<Vec<u64>>,
    /// The heap's extent; it never shrinks, so it is its high-water mark.
    brk: u64,
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

    /// Allocates `size` bytes.
    pub fn alloc(&mut self, size: u32) -> Addr {
        self.counts.allocs += 1;
        let idx = Self::bucket_index(size);
        if self.free_lists.len() <= idx {
            self.free_lists.resize_with(idx + 1, Vec::new);
        }
        if let Some(addr) = self.free_lists[idx].pop() {
            self.counts.bucket_pops += 1;
            return Addr(addr + HEADER);
        }
        // Carve a fresh page (or a single chunk, if larger than a page).
        self.counts.page_carves += 1;
        let bucket = MIN_BUCKET << idx;
        let grow = bucket.max(PAGE);
        let start = self.brk;
        self.brk += grow;
        let chunks = (grow / bucket).max(1);
        for i in (1..chunks).rev() {
            self.free_lists[idx].push(start + i * bucket);
        }
        Addr(start + HEADER)
    }

    /// Frees a chunk [`BsdMalloc::alloc`] returned for `size` bytes: like
    /// BSD's chunk header, the size names the bucket it goes back to.
    ///
    /// An `addr` that cannot be a chunk start (below the header, not
    /// 16-aligned behind it, or past the heap's end), or a `size` above
    /// every bucket allocated so far, is a no-op counted in
    /// [`OpCounts::frees_invalid`]. A double free or a wrong `size` goes
    /// unseen; a replay takes the size from its live table, which
    /// refuses a double free first.
    pub fn free(&mut self, addr: Addr, size: u32) {
        let start = (addr.0.checked_sub(HEADER))
            .filter(|&start| start % MIN_BUCKET == 0 && start < self.brk);
        match (start, self.free_lists.get_mut(Self::bucket_index(size))) {
            (Some(start), Some(list)) => {
                self.counts.frees += 1;
                list.push(start);
            }
            _ => self.counts.frees_invalid += 1,
        }
    }

    /// Current heap extent in bytes.
    pub fn heap_bytes(&self) -> u64 {
        self.brk
    }

    /// Operation counters.
    pub fn counts(&self) -> &OpCounts {
        &self.counts
    }

    /// Number of live allocations: allocations less valid frees.
    pub fn live_blocks(&self) -> usize {
        self.counts.allocs.saturating_sub(self.counts.frees) as usize
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
        h.free(b, 20);
        h.free(a, 20);
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
            h.free(a, 1000);
        }
        assert_eq!(h.heap_bytes(), peak);
        assert_eq!(h.live_blocks(), 0);
    }

    #[test]
    fn large_objects_get_own_extent() {
        let mut h = BsdMalloc::new();
        let a = h.alloc(10_000); // 10004 -> 16384 bucket
        assert!(h.heap_bytes() >= 16384);
        h.free(a, 10_000);
        let b = h.alloc(9_000); // same bucket
        assert_eq!(a, b);
    }

    #[test]
    fn invalid_frees_are_counted_noops() {
        let mut h = BsdMalloc::new();
        let a = h.alloc(8);
        let b = h.alloc(8);
        h.free(a, 8);
        h.free(Addr(b.0 + 4), 8); // not a chunk start
        h.free(Addr(1 << 30), 8); // never allocated
        h.free(Addr(HEADER - 1), 8); // below the header offset
        h.free(b, 10_000); // a bucket never carved
        assert_eq!(h.counts().frees, 1);
        assert_eq!(h.counts().frees_invalid, 4);
        // The chunk went back to its free list once, and `b` is intact.
        assert_eq!(h.alloc(8), a);
        assert_ne!(h.alloc(8), a);
        h.free(b, 8);
        assert_eq!(h.counts().frees, 2);
        assert_eq!(h.live_blocks(), 2);
    }
}
