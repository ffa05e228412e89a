//! Property-based tests over random alloc/free interleavings.

use lifepred_heap::{Addr, ArenaAllocator, ArenaConfig, BsdMalloc, FirstFit};
use proptest::prelude::*;

/// A random allocator script: sizes to allocate, with frees of random
/// live objects interleaved.
#[derive(Debug, Clone)]
enum Op {
    Alloc(u32),
    /// Free the live object at `index % live.len()`.
    Free(usize),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (1u32..2000).prop_map(Op::Alloc),
            (0usize..1000).prop_map(Op::Free),
        ],
        1..400,
    )
}

proptest! {
    /// First-fit never corrupts its block structure, and frees return
    /// all space.
    #[test]
    fn firstfit_structure_holds(script in ops()) {
        let mut heap = FirstFit::new();
        let mut live: Vec<Addr> = Vec::new();
        for op in script {
            match op {
                Op::Alloc(size) => live.push(heap.alloc(size)),
                Op::Free(i) if !live.is_empty() => {
                    let addr = live.swap_remove(i % live.len());
                    heap.free(addr);
                }
                Op::Free(_) => {}
            }
            heap.check_invariants();
        }
        prop_assert_eq!(heap.live_blocks(), live.len());
        for addr in live {
            heap.free(addr);
        }
        heap.check_invariants();
        prop_assert_eq!(heap.live_blocks(), 0);
    }

    /// Live first-fit allocations never overlap.
    #[test]
    fn firstfit_allocations_disjoint(sizes in proptest::collection::vec(1u32..500, 1..100)) {
        let mut heap = FirstFit::new();
        let mut regions: Vec<(u64, u64)> = Vec::new();
        for &size in &sizes {
            let a = heap.alloc(size);
            regions.push((a.0, a.0 + u64::from(size)));
        }
        regions.sort_unstable();
        for w in regions.windows(2) {
            prop_assert!(w[0].1 <= w[1].0, "overlap: {:?} vs {:?}", w[0], w[1]);
        }
    }

    /// BSD never hands out the same chunk twice while it is live, and
    /// heap growth is monotone.
    #[test]
    fn bsd_unique_live_chunks(script in ops()) {
        let mut heap = BsdMalloc::new();
        let mut live: Vec<(Addr, u32)> = Vec::new();
        let mut max_seen = 0;
        for op in script {
            match op {
                Op::Alloc(size) => {
                    let a = heap.alloc(size);
                    prop_assert!(live.iter().all(|&(b, _)| b != a), "chunk {a} handed out twice");
                    live.push((a, size));
                }
                Op::Free(i) if !live.is_empty() => {
                    let (addr, size) = live.swap_remove(i % live.len());
                    heap.free(addr, size);
                }
                Op::Free(_) => {}
            }
            prop_assert!(heap.heap_bytes() >= max_seen);
            max_seen = heap.heap_bytes();
        }
        prop_assert_eq!(heap.live_blocks(), live.len());
    }

    /// Arena live counts exactly track outstanding arena objects, for
    /// any prediction pattern.
    #[test]
    fn arena_live_count_conservation(
        script in ops(),
        predictions in proptest::collection::vec(any::<bool>(), 400),
    ) {
        let mut heap = ArenaAllocator::new(ArenaConfig { arena_count: 4, arena_size: 1024 });
        let mut live: Vec<Addr> = Vec::new();
        let mut arena_live = 0u64;
        let mut pi = 0;
        for op in script {
            match op {
                Op::Alloc(size) => {
                    let predicted = predictions[pi % predictions.len()];
                    pi += 1;
                    let a = heap.alloc(size, predicted);
                    if heap.is_arena_addr(a) {
                        arena_live += 1;
                    }
                    live.push(a);
                }
                Op::Free(i) if !live.is_empty() => {
                    let addr = live.swap_remove(i % live.len());
                    if heap.is_arena_addr(addr) {
                        arena_live -= 1;
                    }
                    heap.free(addr);
                }
                Op::Free(_) => {}
            }
            prop_assert_eq!(heap.arena_live_objects(), arena_live);
        }
    }

    /// Arena addresses and general-heap addresses never collide.
    #[test]
    fn arena_address_spaces_disjoint(sizes in proptest::collection::vec(1u32..512, 1..200)) {
        let mut heap = ArenaAllocator::new(ArenaConfig::default());
        let mut arena_addrs = Vec::new();
        let mut general_addrs = Vec::new();
        for (i, &size) in sizes.iter().enumerate() {
            let a = heap.alloc(size, i % 2 == 0);
            if heap.is_arena_addr(a) {
                arena_addrs.push(a);
            } else {
                general_addrs.push(a);
            }
        }
        for a in &arena_addrs {
            prop_assert!(!general_addrs.contains(a));
        }
    }
}
