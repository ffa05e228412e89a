//! Hanson-style short-lived arenas driven by lifetime prediction.

// Library code only: in-file `#[cfg(test)]` modules are exempt.
#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]

use crate::counts::OpCounts;
use crate::firstfit::FirstFit;
use crate::Addr;

/// Base of the arena area in the simulated address space; far above
/// any first-fit heap so frees route by address, as in the paper
/// ("arenas are contiguous and not part of the general allocation
/// heap").
const ARENA_BASE: u64 = 1 << 40;

/// Alignment of objects inside an arena.
const ARENA_ALIGN: u32 = 8;

/// Arena-area geometry.
///
/// The paper's simulations use a 64 KB arena area — "twice the age of
/// the objects predicted as short-lived" — divided into sixteen 4 KB
/// arenas so one erroneously long-lived object pins only 4 KB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaConfig {
    /// Number of arenas.
    pub arena_count: usize,
    /// Bytes per arena.
    pub arena_size: u32,
}

impl Default for ArenaConfig {
    fn default() -> Self {
        ArenaConfig {
            arena_count: 16,
            arena_size: 4096,
        }
    }
}

impl ArenaConfig {
    /// Total bytes of the arena area.
    ///
    /// # Panics
    ///
    /// Panics when `arena_count * arena_size` overflows `u64`: an
    /// impossible simulated geometry must fail loudly, not wrap into a
    /// tiny address range.
    pub fn total_bytes(&self) -> u64 {
        (self.arena_count as u64)
            .checked_mul(u64::from(self.arena_size))
            .expect("arena geometry overflows u64")
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Arena {
    /// Bump offset ("alloc pointer").
    used: u32,
    /// Live objects in this arena ("count field").
    live: u32,
}

/// The lifetime-predicting allocator of §5.1: objects predicted
/// short-lived are bump-allocated into small fixed arenas with a live
/// count and **no per-object overhead**; everything else (and any
/// arena overflow) goes to an embedded [`FirstFit`] general heap.
///
/// The caller decides `predicted_short` per allocation — in the full
/// system that is a [`ShortLivedSet`](lifepred_core::ShortLivedSet)
/// lookup performed by the replay driver.
///
/// # Examples
///
/// ```
/// use lifepred_heap::{ArenaAllocator, ArenaConfig};
///
/// let mut heap = ArenaAllocator::new(ArenaConfig::default());
/// let a = heap.alloc(32, true); // predicted short-lived: arena
/// let b = heap.alloc(32, false); // general heap
/// assert!(heap.is_arena_addr(a));
/// assert!(!heap.is_arena_addr(b));
/// heap.free(a);
/// heap.free(b);
/// ```
#[derive(Debug, Clone)]
pub struct ArenaAllocator {
    config: ArenaConfig,
    arenas: Vec<Arena>,
    current: usize,
    fallback: FirstFit,
    counts: OpCounts,
}

impl ArenaAllocator {
    /// Creates an allocator with `config` arenas and an empty general
    /// heap.
    pub fn new(config: ArenaConfig) -> Self {
        assert!(config.arena_count > 0, "need at least one arena");
        assert!(config.arena_size > 0, "arenas must have nonzero size");
        ArenaAllocator {
            config,
            arenas: vec![Arena::default(); config.arena_count],
            current: 0,
            fallback: FirstFit::new(),
            counts: OpCounts::default(),
        }
    }

    /// The geometry in use.
    pub(crate) fn config(&self) -> &ArenaConfig {
        &self.config
    }

    /// Allocates `size` bytes; `predicted_short` is the prediction for
    /// this allocation's site.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "OpCounts fields are u64 event tallies: wrapping needs 2^64 operations."
    )]
    pub fn alloc(&mut self, size: u32, predicted_short: bool) -> Addr {
        // Checked rounding: a size within ARENA_ALIGN of u32::MAX must
        // overflow to the general heap, not wrap to a tiny request.
        let aligned = size
            .checked_next_multiple_of(ARENA_ALIGN)
            .unwrap_or(u32::MAX);
        if !predicted_short || aligned > self.config.arena_size {
            if predicted_short {
                // Predicted short but too large for any arena: the
                // paper's GHOST 6 KB objects take this path.
                self.counts.arena_overflows += 1;
            }
            return self.fallback.alloc(size);
        }
        // Fast path: bump the current arena.
        if self.arena_fits(self.current, aligned) {
            return self.bump(self.current, aligned);
        }
        // Scan for an arena with no live objects and reset it.
        if let Some(idx) = self.find_empty() {
            self.arenas[idx] = Arena::default();
            self.counts.arena_resets += 1;
            self.current = idx;
            return self.bump(idx, aligned);
        }
        // All arenas pinned: degenerate to the general allocator.
        self.counts.arena_overflows += 1;
        self.fallback.alloc(size)
    }

    /// Frees `addr`, routing by address range.
    ///
    /// A free the heap cannot match is ignored and counted in
    /// [`OpCounts::frees_invalid`]: an arena address whose arena has
    /// no live object (a double free, or a free after that arena
    /// reset), or a general-heap address that is not a live
    /// allocation (see [`FirstFit::free`]).
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "`addr - ARENA_BASE` runs after is_arena_addr proved addr >= ARENA_BASE, the \
                  divisor is the arena size new() asserted nonzero, and the rest are u64 \
                  OpCounts tallies."
    )]
    pub fn free(&mut self, addr: Addr) {
        if self.is_arena_addr(addr) {
            let idx = ((addr.0 - ARENA_BASE) / u64::from(self.config.arena_size)) as usize;
            let arena = &mut self.arenas[idx];
            match arena.live.checked_sub(1) {
                Some(live) => {
                    arena.live = live;
                    self.counts.arena_frees += 1;
                    self.counts.frees += 1;
                }
                None => self.counts.frees_invalid += 1,
            }
        } else {
            self.fallback.free(addr);
        }
    }

    /// Whether `addr` lies in the arena area.
    pub fn is_arena_addr(&self, addr: Addr) -> bool {
        // Wrapping subtraction folds the two range checks into one
        // compare with no overflowable `base + len` addition.
        addr.0.wrapping_sub(ARENA_BASE) < self.config.total_bytes()
    }

    /// High-water heap size: the general heap's high-water mark plus
    /// the whole arena area (Table 8 "include the 64-kilobyte arena
    /// area in the total").
    pub(crate) fn max_heap_bytes(&self) -> u64 {
        self.fallback
            .max_heap_bytes()
            .saturating_add(self.config.total_bytes())
    }

    /// Merged operation counters (arena side + general heap).
    pub(crate) fn counts(&self) -> OpCounts {
        self.counts.merged(self.fallback.counts())
    }

    /// The embedded general heap.
    pub(crate) fn general_heap(&self) -> &FirstFit {
        &self.fallback
    }

    /// Total live objects across all arenas.
    pub fn arena_live_objects(&self) -> u64 {
        self.arenas.iter().map(|a| u64::from(a.live)).sum()
    }

    /// Bytes currently consumed by arena bump pointers (dead objects
    /// included until their arena resets) — the numerator of arena-area
    /// utilization.
    pub(crate) fn arena_used_bytes(&self) -> u64 {
        self.arenas.iter().map(|a| u64::from(a.used)).sum()
    }

    #[expect(
        clippy::arithmetic_side_effects,
        reason = "`arena_size - used`: bump only advances `used` by an `aligned` that arena_fits \
                  has just admitted, and a reset zeroes it, so used <= arena_size."
    )]
    fn arena_fits(&self, idx: usize, aligned: u32) -> bool {
        self.config.arena_size - self.arenas[idx].used >= aligned
    }

    #[expect(
        clippy::arithmetic_side_effects,
        reason = "`used + aligned <= arena_size` (every caller checked arena_fits); `live` counts \
                  one arena's live objects, so wrapping it needs 2^32 of them at once (only \
                  zero-byte ones fit); the rest are u64 OpCounts tallies."
    )]
    fn bump(&mut self, idx: usize, aligned: u32) -> Addr {
        let arena = &mut self.arenas[idx];
        // idx * arena_size + used <= total_bytes (checked above), and
        // ARENA_BASE sits far below u64::MAX - total_bytes; checked
        // arithmetic documents that rather than trusting it silently.
        let addr = (idx as u64)
            .checked_mul(u64::from(self.config.arena_size))
            .and_then(|off| off.checked_add(u64::from(arena.used)))
            .and_then(|off| ARENA_BASE.checked_add(off))
            .expect("arena address overflows u64");
        arena.used += aligned;
        arena.live += 1;
        self.counts.arena_allocs += 1;
        self.counts.allocs += 1;
        Addr(addr)
    }

    #[expect(
        clippy::arithmetic_side_effects,
        reason = "`arena_scan_steps` is a u64 OpCounts tally."
    )]
    fn find_empty(&mut self) -> Option<usize> {
        for (i, arena) in self.arenas.iter().enumerate() {
            self.counts.arena_scan_steps += 1;
            if arena.live == 0 {
                return Some(i);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ArenaAllocator {
        ArenaAllocator::new(ArenaConfig {
            arena_count: 2,
            arena_size: 64,
        })
    }

    #[test]
    fn bump_allocation_is_contiguous() {
        let mut h = small();
        let a = h.alloc(8, true);
        let b = h.alloc(8, true);
        assert_eq!(b.0, a.0 + 8);
        assert_eq!(h.counts().arena_allocs, 2);
    }

    #[test]
    fn unpredicted_goes_to_general_heap() {
        let mut h = small();
        let a = h.alloc(8, false);
        assert!(!h.is_arena_addr(a));
        assert_eq!(h.counts().arena_allocs, 0);
        h.free(a);
    }

    #[test]
    fn oversized_predicted_objects_fall_back() {
        let mut h = small();
        let a = h.alloc(100, true); // > 64-byte arena
        assert!(!h.is_arena_addr(a));
        assert_eq!(h.counts().arena_overflows, 1);
    }

    #[test]
    fn exhausted_arena_resets_an_empty_one() {
        let mut h = small();
        // Fill arena 0 with dead objects.
        for _ in 0..8 {
            let a = h.alloc(8, true);
            h.free(a);
        }
        // Arena 0 is full but empty of live objects; next alloc that
        // doesn't fit triggers a scan-and-reset.
        let before = h.counts().arena_resets;
        let a = h.alloc(64, true);
        assert!(h.is_arena_addr(a));
        assert_eq!(h.counts().arena_resets, before + 1);
    }

    #[test]
    fn double_arena_free_is_counted_and_the_arena_still_resets() {
        let mut h = small();
        let a = h.alloc(8, true);
        h.free(a);
        h.free(a);
        assert_eq!(h.counts().frees_invalid, 1);
        assert_eq!(h.counts().arena_frees, 1);
        assert_eq!(h.arena_live_objects(), 0);
        // Arena 0 holds no live object, so a request it cannot fit
        // resets it and is served from its base again.
        let b = h.alloc(64, true);
        assert_eq!(b, a);
        assert_eq!(h.counts().arena_resets, 1);
    }

    #[test]
    fn pinned_arenas_degenerate_to_general_heap() {
        let mut h = small();
        // One live object in each arena, both arenas full.
        let mut pins = Vec::new();
        for _ in 0..2 {
            pins.push(h.alloc(8, true));
            for _ in 0..7 {
                let a = h.alloc(8, true);
                h.free(a);
            }
        }
        // Both arenas pinned: this predicted-short alloc overflows.
        let a = h.alloc(64, true);
        assert!(!h.is_arena_addr(a));
        assert!(h.counts().arena_overflows >= 1);
        for p in pins {
            h.free(p);
        }
    }

    #[test]
    fn live_count_conservation() {
        let mut h = small();
        let mut live = Vec::new();
        for i in 0..6 {
            live.push(h.alloc(8, true));
            if i % 2 == 0 {
                let a = live.remove(0);
                h.free(a);
            }
        }
        assert_eq!(h.arena_live_objects(), live.len() as u64);
        for a in live {
            h.free(a);
        }
        assert_eq!(h.arena_live_objects(), 0);
    }

    #[test]
    fn max_heap_includes_arena_area() {
        let h = ArenaAllocator::new(ArenaConfig::default());
        assert_eq!(h.max_heap_bytes(), 64 * 1024);
    }

    #[test]
    fn default_geometry_matches_paper() {
        let c = ArenaConfig::default();
        assert_eq!(c.arena_count, 16);
        assert_eq!(c.arena_size, 4096);
        assert_eq!(c.total_bytes(), 64 * 1024);
    }
}
