//! Operation counts gathered by the simulated allocators.

/// Counters of the primitive operations each simulated allocator
/// performed; the cost model multiplies these by per-operation
/// instruction estimates to produce Table 9.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Allocation requests served.
    pub allocs: u64,
    /// Deallocation requests served.
    pub frees: u64,
    /// Deallocation requests ignored because the address cannot be a
    /// live allocation (never allocated or mid-block) — a corrupted
    /// trace cannot poison the heap structures. Double frees are the replay's to refuse.
    pub frees_invalid: u64,
    /// Free-list blocks examined during first-fit searches.
    pub search_steps: u64,
    /// Block splits performed.
    pub splits: u64,
    /// Coalesce operations performed at free time.
    pub coalesces: u64,
    /// Heap page extensions.
    pub page_grows: u64,
    /// BSD bucket-list pops (fast-path allocations).
    pub bucket_pops: u64,
    /// BSD page carves (slow-path allocations that split a fresh page
    /// into chunks).
    pub page_carves: u64,
    /// Allocations served from a short-lived arena (bump pointer).
    pub arena_allocs: u64,
    /// Frees that only decremented an arena's live count.
    pub arena_frees: u64,
    /// Arena resets (an exhausted arena chain found an empty arena).
    pub arena_resets: u64,
    /// Arena slots examined while scanning for an empty arena.
    pub arena_scan_steps: u64,
    /// Allocations predicted short-lived that nevertheless went to the
    /// general heap (no empty arena, or object too large).
    pub arena_overflows: u64,
}

impl OpCounts {
    /// Sums two count sets (used when an allocator embeds another,
    /// e.g. the arena allocator's first-fit fallback).
    pub(crate) fn merged(&self, other: &OpCounts) -> OpCounts {
        OpCounts {
            allocs: self.allocs + other.allocs,
            frees: self.frees + other.frees,
            frees_invalid: self.frees_invalid + other.frees_invalid,
            search_steps: self.search_steps + other.search_steps,
            splits: self.splits + other.splits,
            coalesces: self.coalesces + other.coalesces,
            page_grows: self.page_grows + other.page_grows,
            bucket_pops: self.bucket_pops + other.bucket_pops,
            page_carves: self.page_carves + other.page_carves,
            arena_allocs: self.arena_allocs + other.arena_allocs,
            arena_frees: self.arena_frees + other.arena_frees,
            arena_resets: self.arena_resets + other.arena_resets,
            arena_scan_steps: self.arena_scan_steps + other.arena_scan_steps,
            arena_overflows: self.arena_overflows + other.arena_overflows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merged_adds_fieldwise() {
        let a = OpCounts {
            allocs: 1,
            search_steps: 10,
            ..OpCounts::default()
        };
        let b = OpCounts {
            allocs: 2,
            coalesces: 5,
            ..OpCounts::default()
        };
        let m = a.merged(&b);
        assert_eq!(m.allocs, 3);
        assert_eq!(m.search_steps, 10);
        assert_eq!(m.coalesces, 5);
    }
}
