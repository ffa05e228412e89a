//! Address-ordered free-block tree for the first-fit heap.
//!
//! The paper's first-fit allocator answers every allocation with a
//! linear roving-pointer scan over the free list — O(free blocks) per
//! request. [`FreeTree`] holds the same free list as **one** balanced
//! tree keyed by block address, each node carrying its block's `size`
//! plus two subtree summaries:
//!
//! * `max`, the largest block size below the node, so "lowest address
//!   ≥ the rover with size ≥ n" is one descent that never enters a
//!   subtree too small to hold a fit;
//! * `count`, the number of blocks below the node, so the number of
//!   free blocks the *linear* scan would have examined between the
//!   rover and the found block is two [`rank`](FreeTree::rank) queries.
//!   That keeps `OpCounts::search_steps` — the input to the Table 9
//!   instruction-cost model — byte-identical to the paper's scan (see
//!   `FirstFit::search` and DESIGN.md §11).
//!
//! Address predecessor/successor (coalescing) and the topmost block
//! (heap growth) are descents of the same tree. A block that shrinks
//! from the front, grows, or absorbs a neighbour keeps its place in
//! address order, so [`FreeTree::update`] edits the node where it sits
//! and repairs the summaries along its root path; only a block that
//! appears or disappears restructures the tree. The tree is a treap;
//! because keys move, priorities are drawn from a per-tree generator
//! rather than hashed from the key, which keeps the shape a pure
//! function of the operation sequence (replays stay reproducible).

/// Sentinel child index.
const NIL: u32 = u32::MAX;

/// Counters of the tree's own search work, exported as
/// `lifepred_sim_index_*` metrics by observed replays (they have no
/// counterpart in the paper's linear scan and therefore live outside
/// [`OpCounts`](crate::OpCounts)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct IndexStats {
    /// Searches that found a fitting free block (every first-fit
    /// placement that did not require growing the heap).
    pub hits: u64,
    /// Tree nodes visited by searches.
    pub node_visits: u64,
}

/// A free block as `(address, size)`.
pub(crate) type FreeBlock = (u64, u64);

#[derive(Debug, Clone, Copy)]
struct Node {
    addr: u64,
    size: u64,
    /// Largest `size` in this subtree.
    max: u64,
    prio: u32,
    left: u32,
    right: u32,
    /// Nodes in this subtree.
    count: u32,
}

/// The free blocks of one heap, ordered by address.
#[derive(Debug, Clone)]
pub(crate) struct FreeTree {
    nodes: Vec<Node>,
    /// Recycled node slots.
    spare: Vec<u32>,
    root: u32,
    /// Scratch: the root path of the node being edited.
    path: Vec<u32>,
    /// State of the priority generator (SplitMix64).
    prio_state: u64,
    stats: IndexStats,
}

impl FreeTree {
    pub(crate) fn new() -> FreeTree {
        FreeTree {
            nodes: Vec::new(),
            spare: Vec::new(),
            root: NIL,
            path: Vec::new(),
            prio_state: 0,
            stats: IndexStats::default(),
        }
    }

    /// Total free blocks.
    pub(crate) fn len(&self) -> usize {
        self.count(self.root) as usize
    }

    /// Search work counters.
    pub(crate) fn stats(&self) -> IndexStats {
        self.stats
    }

    #[inline]
    fn count(&self, t: u32) -> u32 {
        self.nodes.get(t as usize).map_or(0, |n| n.count)
    }

    #[inline]
    fn max(&self, t: u32) -> u64 {
        self.nodes.get(t as usize).map_or(0, |n| n.max)
    }

    /// Recomputes the summaries of `t` from its children.
    #[inline]
    fn pull(&mut self, t: u32) {
        let n = self.nodes[t as usize];
        let count = 1 + self.count(n.left) + self.count(n.right);
        let max = n.size.max(self.max(n.left)).max(self.max(n.right));
        let n = &mut self.nodes[t as usize];
        n.count = count;
        n.max = max;
    }

    /// Number of free blocks at addresses strictly below `addr`.
    pub(crate) fn rank(&self, addr: u64) -> usize {
        let mut t = self.root;
        let mut below = 0usize;
        while let Some(n) = self.nodes.get(t as usize) {
            if addr <= n.addr {
                t = n.left;
            } else {
                below += self.count(n.left) as usize + 1;
                t = n.right;
            }
        }
        below
    }

    /// First (lowest-address) free block at address ≥ `from` with size
    /// ≥ `need`. One descent: only the boundary path of `from` can be
    /// walked in vain; any other subtree is entered only when its
    /// `max` promises a fit.
    pub(crate) fn find_at_or_after(&mut self, from: u64, need: u64) -> Option<FreeBlock> {
        let mut visits = 0;
        let hit = self.find(self.root, from, need, &mut visits);
        self.stats.node_visits += visits;
        let n = self.nodes.get(hit as usize)?;
        self.stats.hits += 1;
        Some((n.addr, n.size))
    }

    fn find(&self, t: u32, from: u64, need: u64, visits: &mut u64) -> u32 {
        let Some(n) = self.nodes.get(t as usize) else {
            return NIL;
        };
        *visits += 1;
        if n.max < need {
            return NIL;
        }
        if n.addr >= from {
            let hit = self.find(n.left, from, need, visits);
            if hit != NIL {
                return hit;
            }
            if n.size >= need {
                return t;
            }
        }
        self.find(n.right, from, need, visits)
    }

    /// The free blocks nearest below and above `addr`, which is not
    /// itself a free block's address.
    pub(crate) fn neighbours(&self, addr: u64) -> (Option<FreeBlock>, Option<FreeBlock>) {
        let (mut pred, mut succ) = (None, None);
        let mut t = self.root;
        while let Some(n) = self.nodes.get(t as usize) {
            debug_assert_ne!(n.addr, addr, "0x{addr:x} is a free block");
            if n.addr < addr {
                pred = Some((n.addr, n.size));
                t = n.right;
            } else {
                succ = Some((n.addr, n.size));
                t = n.left;
            }
        }
        (pred, succ)
    }

    /// The highest-address free block.
    pub(crate) fn last(&self) -> Option<FreeBlock> {
        let mut n = self.nodes.get(self.root as usize)?;
        while let Some(right) = self.nodes.get(n.right as usize) {
            n = right;
        }
        Some((n.addr, n.size))
    }

    /// Fills `path` with the nodes from the root down to the block at
    /// `addr`, which the caller guarantees is in the tree.
    fn locate(&mut self, addr: u64) -> u32 {
        self.path.clear();
        let mut t = self.root;
        loop {
            let n = &self.nodes[t as usize];
            self.path.push(t);
            if n.addr == addr {
                return t;
            }
            t = if addr < n.addr { n.left } else { n.right };
        }
    }

    /// Recomputes the summaries of every node on `path`, deepest first.
    fn repair_path(&mut self) {
        for i in (0..self.path.len()).rev() {
            self.pull(self.path[i]);
        }
    }

    /// Makes `child` the subtree that hangs off the last node of
    /// `path` on the side `addr` sorts to (or the root, on an empty
    /// path).
    fn attach(&mut self, addr: u64, child: u32) {
        match self.path.last() {
            None => self.root = child,
            Some(&p) => {
                let parent = &mut self.nodes[p as usize];
                if addr < parent.addr {
                    parent.left = child;
                } else {
                    parent.right = child;
                }
            }
        }
    }

    /// Moves and/or resizes the free block at `addr` where it sits.
    /// The caller guarantees the new extent stays between the block's
    /// address neighbours (a front split, a coalesce or heap growth),
    /// so the tree's shape is untouched.
    pub(crate) fn update(&mut self, addr: u64, new_addr: u64, new_size: u64) {
        let t = self.locate(addr);
        let n = &mut self.nodes[t as usize];
        n.addr = new_addr;
        n.size = new_size;
        self.repair_path();
    }

    fn next_prio(&mut self) -> u32 {
        self.prio_state = self.prio_state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.prio_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 32) as u32
    }

    /// Registers the free block `[addr, addr + size)`; the caller
    /// guarantees no free block starts at `addr`.
    pub(crate) fn insert(&mut self, addr: u64, size: u64) {
        let prio = self.next_prio();
        // Descend to the first node the new one outranks.
        self.path.clear();
        let mut t = self.root;
        while let Some(n) = self.nodes.get(t as usize) {
            if n.prio < prio {
                break;
            }
            debug_assert_ne!(n.addr, addr, "re-inserted free block 0x{addr:x}");
            self.path.push(t);
            t = if addr < n.addr { n.left } else { n.right };
        }
        let (left, right) = self.split(t, addr);
        let node = Node {
            addr,
            size,
            max: size,
            prio,
            left,
            right,
            count: 1,
        };
        let slot = match self.spare.pop() {
            Some(i) => {
                self.nodes[i as usize] = node;
                i
            }
            None => {
                assert!(self.nodes.len() < NIL as usize, "free tree full");
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        };
        self.pull(slot);
        self.attach(addr, slot);
        self.repair_path();
    }

    /// Forgets the free block at `addr`.
    pub(crate) fn remove(&mut self, addr: u64) {
        let t = self.locate(addr);
        self.path.pop();
        let Node { left, right, .. } = self.nodes[t as usize];
        let merged = self.merge(left, right);
        self.attach(addr, merged);
        self.spare.push(t);
        self.repair_path();
    }

    /// Splits `t` into `(addresses < addr, addresses > addr)`.
    fn split(&mut self, t: u32, addr: u64) -> (u32, u32) {
        if t == NIL {
            return (NIL, NIL);
        }
        if self.nodes[t as usize].addr < addr {
            let (l, r) = self.split(self.nodes[t as usize].right, addr);
            self.nodes[t as usize].right = l;
            self.pull(t);
            (t, r)
        } else {
            let (l, r) = self.split(self.nodes[t as usize].left, addr);
            self.nodes[t as usize].left = r;
            self.pull(t);
            (l, t)
        }
    }

    /// Merges `l` and `r`; every address of `l` is below every address
    /// of `r`.
    fn merge(&mut self, l: u32, r: u32) -> u32 {
        if l == NIL {
            return r;
        }
        if r == NIL {
            return l;
        }
        if self.nodes[l as usize].prio >= self.nodes[r as usize].prio {
            let m = self.merge(self.nodes[l as usize].right, r);
            self.nodes[l as usize].right = m;
            self.pull(l);
            l
        } else {
            let m = self.merge(l, self.nodes[r as usize].left);
            self.nodes[r as usize].left = m;
            self.pull(r);
            r
        }
    }

    /// Panics unless the tree is a well-formed treap with correct
    /// summaries (address order, heap order of priorities, `count` and
    /// `max` of every node, no leaked slot); returns the free blocks in
    /// address order. Used by `FirstFit::check_invariants`.
    pub(crate) fn check_invariants(&self) -> Vec<FreeBlock> {
        let mut blocks = Vec::with_capacity(self.len());
        self.check_subtree(self.root, u32::MAX, &mut blocks);
        assert!(
            blocks.windows(2).all(|w| w[0].0 < w[1].0),
            "free tree out of address order"
        );
        assert_eq!(
            blocks.len() + self.spare.len(),
            self.nodes.len(),
            "free tree leaked a node slot"
        );
        blocks
    }

    /// Checks subtree `t` (whose parent has priority `parent_prio`),
    /// appending its blocks in order; returns its `(count, max)`.
    fn check_subtree(&self, t: u32, parent_prio: u32, out: &mut Vec<FreeBlock>) -> (u32, u64) {
        let Some(n) = self.nodes.get(t as usize) else {
            return (0, 0);
        };
        assert!(n.prio <= parent_prio, "heap order broken at 0x{:x}", n.addr);
        assert!(n.size > 0, "empty free block at 0x{:x}", n.addr);
        let (lcount, lmax) = self.check_subtree(n.left, n.prio, out);
        out.push((n.addr, n.size));
        let (rcount, rmax) = self.check_subtree(n.right, n.prio, out);
        let (count, max) = (1 + lcount + rcount, n.size.max(lmax).max(rmax));
        assert_eq!(n.count, count, "stale count at 0x{:x}", n.addr);
        assert_eq!(n.max, max, "stale max at 0x{:x}", n.addr);
        (count, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tree_of(blocks: &[(u64, u64)]) -> FreeTree {
        let mut tree = FreeTree::new();
        for &(addr, size) in blocks {
            tree.insert(addr, size);
        }
        tree
    }

    #[test]
    fn find_prefers_lowest_address_not_best_fit() {
        // A big block at the bottom, a snug one higher up: first-fit
        // from the base takes the big low block even though the high
        // one fits more tightly.
        let mut tree = tree_of(&[(0, 4096), (8192, 64)]);
        assert_eq!(tree.find_at_or_after(0, 64), Some((0, 4096)));
        // From above the big block, the snug one wins.
        assert_eq!(tree.find_at_or_after(4096, 64), Some((8192, 64)));
        assert_eq!(tree.find_at_or_after(8193, 64), None);
        assert_eq!(tree.stats().hits, 2);
    }

    #[test]
    fn smaller_blocks_of_the_same_size_class_are_skipped() {
        let mut tree = tree_of(&[(0, 40), (1000, 33), (2000, 63)]);
        assert_eq!(tree.find_at_or_after(0, 48), Some((2000, 63)));
        assert_eq!(tree.find_at_or_after(0, 40), Some((0, 40)));
        assert_eq!(tree.find_at_or_after(1, 40), Some((2000, 63)));
    }

    #[test]
    fn update_moves_and_resizes_in_place() {
        let mut tree = tree_of(&[(0, 16), (64, 48), (256, 16)]);
        tree.update(64, 80, 32); // front split
        assert_eq!(tree.find_at_or_after(0, 32), Some((80, 32)));
        tree.update(80, 32, 224); // absorbed the space on both sides
        assert_eq!(tree.find_at_or_after(0, 200), Some((32, 224)));
        assert_eq!(tree.check_invariants(), [(0, 16), (32, 224), (256, 16)]);
        tree.remove(32);
        assert_eq!(tree.find_at_or_after(0, 17), None);
        assert_eq!(tree.len(), 2);
    }

    #[test]
    fn node_slots_are_recycled() {
        let mut tree = FreeTree::new();
        for k in 0..100u64 {
            tree.insert(k * 32, 16);
        }
        for k in 0..100u64 {
            tree.remove(k * 32);
        }
        let allocated = tree.nodes.len();
        for k in 0..100u64 {
            tree.insert(k * 32 + 8, 16);
        }
        assert_eq!(tree.nodes.len(), allocated, "slots must be recycled");
        assert_eq!(tree.check_invariants().len(), 100);
    }

    /// The old in-bin walk was O(holes) when every hole shared the
    /// request's log2 size class but was too small; the tree's `max`
    /// answers without looking at them.
    #[test]
    fn too_small_holes_of_the_right_size_class_cost_log_n() {
        const HOLES: u64 = 60_000;
        let mut tree = FreeTree::new();
        for k in 0..HOLES {
            tree.insert(k * 256, 64 + (k % 6) * 8); // 64..=104: class 6
        }
        tree.insert(HOLES * 256, 4096);
        let log2 = u64::from(HOLES.ilog2());
        for (from, need, expect) in [
            (0, 120, Some((HOLES * 256, 4096))), // class 6, fits no hole
            (HOLES * 128, 112, Some((HOLES * 256, 4096))),
            (0, 8192, None),
        ] {
            let before = tree.stats().node_visits;
            assert_eq!(tree.find_at_or_after(from, need), expect);
            let visits = tree.stats().node_visits - before;
            assert!(visits <= 6 * log2, "{visits} node visits for {HOLES} holes");
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// A new block `gap` bytes above block `i - 1`.
        Insert(usize, u64, u64),
        Remove(usize),
        /// Shrink from the front (a split).
        Shrink(usize, u64),
        /// Grow downwards and upwards, as far as the neighbours allow.
        Grow(usize, u64, u64),
        Find(u64, u64),
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        let block = || 0usize..1000;
        proptest::collection::vec(
            prop_oneof![
                (block(), 0u64..300, 1u64..200).prop_map(|(i, gap, s)| Op::Insert(i, gap, s)),
                (block(), 0u64..300, 1u64..200).prop_map(|(i, gap, s)| Op::Insert(i, gap, s)),
                block().prop_map(Op::Remove),
                (block(), 1u64..200).prop_map(|(i, by)| Op::Shrink(i, by)),
                (block(), 0u64..200, 0u64..200).prop_map(|(i, d, u)| Op::Grow(i, d, u)),
                (0u64..40_000, 1u64..400).prop_map(|(from, need)| Op::Find(from, need)),
            ],
            1..300,
        )
    }

    /// What the tree must answer, computed from a sorted `Vec`.
    fn check_against(tree: &mut FreeTree, model: &[(u64, u64)], probes: &[(u64, u64)]) {
        assert_eq!(tree.check_invariants(), model);
        assert_eq!(tree.last(), model.last().copied());
        for &(from, need) in probes {
            let expect = model.iter().find(|b| b.0 >= from && b.1 >= need).copied();
            assert_eq!(tree.find_at_or_after(from, need), expect);
            assert_eq!(tree.rank(from), model.iter().filter(|b| b.0 < from).count());
            if model.iter().all(|b| b.0 != from) {
                let pred = model.iter().rev().find(|b| b.0 < from).copied();
                let succ = model.iter().find(|b| b.0 > from).copied();
                assert_eq!(tree.neighbours(from), (pred, succ));
            }
        }
    }

    proptest! {
        /// Inserts, removals and in-place moves/resizes keep the tree
        /// answering exactly like a sorted vector of blocks.
        #[test]
        fn tree_matches_sorted_vec_model(script in ops()) {
            let mut tree = FreeTree::new();
            let mut model: Vec<(u64, u64)> = Vec::new();
            // Where the block before / after `model[i]` ends / starts.
            let end_below = |model: &[(u64, u64)], i: usize| match i {
                0 => 0,
                _ => model[i - 1].0 + model[i - 1].1,
            };
            let start_above = |model: &[(u64, u64)], i: usize| model.get(i + 1).map_or(u64::MAX, |b| b.0);
            for op in script {
                let mut probes = vec![(0, 1), (0, 150), (20_000, 50)];
                match op {
                    Op::Insert(i, gap, size) => {
                        let i = i % (model.len() + 1);
                        let addr = end_below(&model, i) + gap;
                        if model.get(i).is_none_or(|b| addr + size <= b.0) {
                            tree.insert(addr, size);
                            model.insert(i, (addr, size));
                            probes.push((addr, size));
                        }
                    }
                    Op::Remove(i) if !model.is_empty() => {
                        let (addr, _) = model.remove(i % model.len());
                        tree.remove(addr);
                        probes.push((addr, 1));
                    }
                    Op::Shrink(i, by) if !model.is_empty() => {
                        let i = i % model.len();
                        let b = &mut model[i];
                        if by < b.1 {
                            tree.update(b.0, b.0 + by, b.1 - by);
                            *b = (b.0 + by, b.1 - by);
                            probes.push(*b);
                        }
                    }
                    Op::Grow(i, down, up) if !model.is_empty() => {
                        let i = i % model.len();
                        let (addr, size) = model[i];
                        let lo = addr.saturating_sub(down).max(end_below(&model, i));
                        let hi = (addr + size + up).min(start_above(&model, i));
                        tree.update(addr, lo, hi - lo);
                        model[i] = (lo, hi - lo);
                        probes.push((lo + 1, hi - lo));
                    }
                    Op::Find(from, need) => probes.push((from, need)),
                    _ => {}
                }
                check_against(&mut tree, &model, &probes);
            }
        }
    }
}
