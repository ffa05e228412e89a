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
//!   rover and the found block is the difference of two ranks, summed
//!   by that same descent. That keeps `OpCounts::search_steps` — the
//!   input to the Table 9 instruction-cost model — byte-identical to
//!   the paper's scan (see `FirstFit::search` and DESIGN.md §11).
//!
//! Address predecessor/successor (coalescing) and the topmost block
//! (heap growth) are descents of the same tree. Every walk records its
//! root path and hands back a [`Found`], so the edit that follows it
//! repairs that path instead of descending again; a block freed between
//! two allocated ones is inserted through the path its neighbour walk
//! left. A block that shrinks from the front, grows, or absorbs a
//! neighbour keeps its place in address order, so
//! [`FreeTree::update_on_path`] edits the node where it sits; only a
//! block that appears or disappears restructures the tree.
//!
//! Each edit repairs only the summaries it changes. An in-place edit
//! never changes a `count`, and its `max` change stops at the first
//! ancestor whose `max` does not move. An insert adds one to each
//! ancestor's `count` and folds its size into their `max` without
//! looking at their children; a removal subtracts one from each
//! ancestor's `count` and repairs `max` only as far as it moves. The
//! tree is a treap;
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
    /// Tree nodes visited by [`FreeTree::first_fit`] walks: the start
    /// address's whole boundary path, plus the nodes of the subtree
    /// descent that resolves a hit below it.
    pub node_visits: u64,
    /// Node summaries recomputed from their children: the new node of an
    /// insert, the nodes a split or merge rebuilds, and each node whose
    /// `max` an edit lowered to a value only its children can tell. Not
    /// exported; it pins that edits repair only what they change.
    pub(crate) recomputes: u64,
}

/// A free block as `(address, size)`.
pub(crate) type FreeBlock = (u64, u64);

/// A free block a walk of the tree reached, and its depth on the walk's
/// root path. [`FreeTree::update_on_path`] and
/// [`FreeTree::remove_on_path`] edit it through that path without
/// descending again. In-place edits keep every path intact, so it stays
/// valid until the tree is walked or a block is inserted, until it is
/// edited (the edit returns its successor), or until it or a block
/// above it on the path is removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Found {
    pub(crate) addr: u64,
    pub(crate) size: u64,
    depth: usize,
}

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
        self.stats.recomputes += 1;
        let n = self.nodes[t as usize];
        let count = 1 + self.count(n.left) + self.count(n.right);
        let max = n.size.max(self.max(n.left)).max(self.max(n.right));
        let n = &mut self.nodes[t as usize];
        n.count = count;
        n.max = max;
    }

    /// Carries a change of one term of a `max` — from `old` to `new` —
    /// up the first `len` nodes of the scratch path, deepest first: the
    /// term is the block's own size at `len` (an in-place edit) or the
    /// `max` of the subtree hanging there (a removal). Stops at the
    /// first node whose `max` does not move; only a node whose `max`
    /// was the term and shrank recomputes it from its children.
    fn repair_max(&mut self, mut len: usize, mut old: u64, mut new: u64) {
        while old != new && len > 0 {
            len -= 1;
            let t = self.path[len];
            let was = self.nodes[t as usize].max;
            let now = if new >= was {
                new
            } else if old < was {
                was
            } else {
                self.stats.recomputes += 1;
                let n = self.nodes[t as usize];
                n.size.max(self.max(n.left)).max(self.max(n.right))
            };
            self.nodes[t as usize].max = now;
            (old, new) = (was, now);
        }
    }

    /// First (lowest-address) free block at address ≥ `from` with size
    /// ≥ `need`, with the order statistics the linear scan's step count
    /// needs: returns `rank(from)`, the number of free blocks below
    /// `from`, and on a hit the block and its own rank.
    ///
    /// One walk: `from`'s boundary path yields `rank(from)`, and the
    /// blocks at or after `from` are, in address order, each node on
    /// that path that is ≥ `from` (deepest first) followed by its right
    /// subtree. The hit is the first of those that fits; a subtree is
    /// entered only when its `max` promises one. The scratch path is
    /// left as the hit's root path, for an edit through the returned
    /// [`Found`].
    pub(crate) fn first_fit(&mut self, from: u64, need: u64) -> (usize, Option<(Found, usize)>) {
        self.path.clear();
        let mut rank_from = 0usize;
        let mut t = self.root;
        while let Some(n) = self.nodes.get(t as usize) {
            self.path.push(t);
            if from <= n.addr {
                t = n.left;
            } else {
                rank_from += self.count(n.left) as usize + 1;
                t = n.right;
            }
        }
        let (mut rank, mut visits) = (rank_from, self.path.len() as u64);
        let mut hit = None;
        for depth in (0..self.path.len()).rev() {
            let n = self.nodes[self.path[depth] as usize];
            if n.addr < from {
                continue;
            }
            if n.size >= need {
                self.path.truncate(depth + 1);
                hit = Some(depth);
                break;
            }
            rank += 1;
            if self.max(n.right) < need {
                rank += self.count(n.right) as usize;
                continue;
            }
            // The fit is the lowest-addressed one in the right subtree.
            self.path.truncate(depth + 1);
            let mut t = n.right;
            loop {
                let n = self.nodes[t as usize];
                self.path.push(t);
                visits += 1;
                if self.max(n.left) >= need {
                    t = n.left;
                    continue;
                }
                rank += self.count(n.left) as usize;
                if n.size >= need {
                    break;
                }
                rank += 1;
                t = n.right;
            }
            hit = Some(self.path.len() - 1);
            break;
        }
        self.stats.node_visits += visits;
        let hit = hit.map(|depth| {
            self.stats.hits += 1;
            (self.found(depth), rank)
        });
        (rank_from, hit)
    }

    /// The free block at `depth` on the scratch path.
    fn found(&self, depth: usize) -> Found {
        let n = &self.nodes[self.path[depth] as usize];
        Found {
            addr: n.addr,
            size: n.size,
            depth,
        }
    }

    /// The free blocks nearest below and above `addr`, which is not
    /// itself a free block's address. Both lie on `addr`'s boundary
    /// path, which the walk leaves as the scratch path, so either can
    /// be edited through the returned [`Found`].
    pub(crate) fn neighbours_path(&mut self, addr: u64) -> (Option<Found>, Option<Found>) {
        self.path.clear();
        let (mut pred, mut succ) = (None, None);
        let mut t = self.root;
        while let Some(n) = self.nodes.get(t as usize) {
            debug_assert_ne!(n.addr, addr, "0x{addr:x} is a free block");
            let at = Found {
                addr: n.addr,
                size: n.size,
                depth: self.path.len(),
            };
            self.path.push(t);
            if n.addr < addr {
                pred = Some(at);
                t = n.right;
            } else {
                succ = Some(at);
                t = n.left;
            }
        }
        (pred, succ)
    }

    /// The highest-address free block, leaving its root path (the right
    /// spine) as the scratch path.
    pub(crate) fn last(&mut self) -> Option<Found> {
        self.path.clear();
        let mut t = self.root;
        while let Some(n) = self.nodes.get(t as usize) {
            self.path.push(t);
            t = n.right;
        }
        let depth = self.path.len().checked_sub(1)?;
        Some(self.found(depth))
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

    /// The node `at` names, which the caller guarantees is still where
    /// the walk that found it left it.
    fn node_at(&self, at: Found) -> u32 {
        let t = self.path[at.depth];
        debug_assert_eq!(self.nodes[t as usize].addr, at.addr, "stale path");
        t
    }

    /// Moves and/or resizes the free block `at` where it sits and
    /// repairs `max` up its root path as far as it moves; returns the
    /// block as it now is. The caller guarantees the new extent stays
    /// between the block's address neighbours (a front split, a coalesce
    /// or heap growth), so the tree's shape — and with it the scratch
    /// path and every `count` — is untouched.
    pub(crate) fn update_on_path(&mut self, at: Found, new_addr: u64, new_size: u64) -> Found {
        let t = self.node_at(at);
        let n = &mut self.nodes[t as usize];
        let old_size = n.size;
        n.addr = new_addr;
        n.size = new_size;
        self.repair_max(at.depth + 1, old_size, new_size);
        Found {
            addr: new_addr,
            size: new_size,
            depth: at.depth,
        }
    }

    fn next_prio(&mut self) -> u32 {
        self.prio_state = self.prio_state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.prio_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 32) as u32
    }

    /// [`insert_on_path`](Self::insert_on_path) after a walk of its own.
    #[cfg(test)]
    pub(crate) fn insert(&mut self, addr: u64, size: u64) -> Found {
        self.neighbours_path(addr);
        self.insert_on_path(addr, size)
    }

    /// Registers the free block `[addr, addr + size)`, leaving its root
    /// path as the scratch path; the caller guarantees no free block
    /// starts at `addr`, and that the scratch path is `addr`'s whole
    /// boundary path: the walk of
    /// [`neighbours_path`](Self::neighbours_path) at `addr`, or of
    /// [`last`](Self::last) when `addr` is above every free block. The
    /// treap places the new node at the first node on that path it
    /// outranks, so no second descent is needed.
    pub(crate) fn insert_on_path(&mut self, addr: u64, size: u64) -> Found {
        debug_assert_eq!(
            self.path.last().map_or(self.root, |&p| {
                let n = &self.nodes[p as usize];
                if addr < n.addr {
                    n.left
                } else {
                    n.right
                }
            }),
            NIL,
            "0x{addr:x}'s boundary path does not reach the bottom"
        );
        let prio = self.next_prio();
        let at = (self.path.iter())
            .position(|&t| self.nodes[t as usize].prio < prio)
            .unwrap_or(self.path.len());
        let t = self.path.get(at).copied().unwrap_or(NIL);
        self.path.truncate(at);
        // Every node above gains the new block.
        for &p in &self.path {
            let n = &mut self.nodes[p as usize];
            n.count += 1;
            n.max = n.max.max(size);
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
        self.path.push(slot);
        self.found(self.path.len() - 1)
    }

    /// Forgets the free block `at`. Only the nodes above it stay on the
    /// scratch path; each loses one from its `count`, and `max` is
    /// repaired as far as it moves.
    pub(crate) fn remove_on_path(&mut self, at: Found) {
        let t = self.node_at(at);
        let Node {
            left, right, max, ..
        } = self.nodes[t as usize];
        let merged = self.merge(left, right);
        self.path.truncate(at.depth);
        self.attach(at.addr, merged);
        self.spare.push(t);
        for &p in &self.path {
            self.nodes[p as usize].count -= 1;
        }
        self.repair_max(at.depth, max, self.max(merged));
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

    fn block(found: Found) -> FreeBlock {
        (found.addr, found.size)
    }

    /// The first-fit hit alone.
    fn fit(tree: &mut FreeTree, from: u64, need: u64) -> Option<FreeBlock> {
        tree.first_fit(from, need).1.map(|(hit, _)| block(hit))
    }

    #[test]
    fn first_fit_prefers_lowest_address_not_best_fit() {
        // A big block at the bottom, a snug one higher up: first-fit
        // from the base takes the big low block even though the high
        // one fits more tightly.
        let mut tree = tree_of(&[(0, 4096), (8192, 64)]);
        assert_eq!(fit(&mut tree, 0, 64), Some((0, 4096)));
        // From above the big block, the snug one wins.
        assert_eq!(fit(&mut tree, 4096, 64), Some((8192, 64)));
        assert_eq!(fit(&mut tree, 8193, 64), None);
        assert_eq!(tree.stats().hits, 2);
    }

    #[test]
    fn smaller_blocks_of_the_same_size_class_are_skipped() {
        let mut tree = tree_of(&[(0, 40), (1000, 33), (2000, 63)]);
        assert_eq!(fit(&mut tree, 0, 48), Some((2000, 63)));
        assert_eq!(fit(&mut tree, 0, 40), Some((0, 40)));
        assert_eq!(fit(&mut tree, 1, 40), Some((2000, 63)));
        // Ranks: one block below 1, and the hit has two below it.
        assert_eq!(tree.first_fit(1, 40).0, 1);
        assert_eq!(tree.first_fit(1, 40).1.map(|(_, rank)| rank), Some(2));
    }

    #[test]
    fn edits_reuse_the_walks_path() {
        let mut tree = tree_of(&[(0, 16), (64, 48), (256, 16)]);
        let (_, hit) = tree.first_fit(1, 32);
        let (hit, _) = hit.expect("a fit");
        tree.update_on_path(hit, 80, 32); // front split
        assert_eq!(fit(&mut tree, 0, 32), Some((80, 32)));
        // The block freed between the first two absorbs both.
        let (pred, succ) = tree.neighbours_path(32);
        let (pred, succ) = (pred.expect("pred"), succ.expect("succ"));
        assert_eq!((block(pred), block(succ)), ((0, 16), (80, 32)));
        tree.update_on_path(pred, 0, 112);
        tree.remove_on_path(succ);
        assert_eq!(tree.check_invariants(), [(0, 112), (256, 16)]);
        let top = tree.last().expect("a block");
        tree.remove_on_path(top);
        assert_eq!(fit(&mut tree, 0, 17), Some((0, 112)));
        assert_eq!(tree.len(), 1);
    }

    #[test]
    fn node_slots_are_recycled() {
        let mut tree = FreeTree::new();
        let found: Vec<_> = (0..100u64).map(|k| tree.insert(k * 32, 16)).collect();
        for f in found {
            let (pred, succ) = tree.neighbours_path(f.addr + 1);
            assert_eq!(
                succ.map(|s| s.addr),
                Some(f.addr + 32).filter(|&a| a < 3200)
            );
            let pred = pred.expect("the block itself");
            tree.remove_on_path(pred);
        }
        let allocated = tree.nodes.len();
        for k in 0..100u64 {
            tree.insert(k * 32 + 8, 16);
        }
        assert_eq!(tree.nodes.len(), allocated, "slots must be recycled");
        assert_eq!(tree.check_invariants().len(), 100);
    }

    /// Blocks `k * 1024` of distinct sizes `100 + k`, in a scrambled
    /// insertion order.
    fn scrambled_tree(n: u64) -> FreeTree {
        let mut tree = FreeTree::new();
        for k in (0..n).map(|i| i * 7919 % n) {
            tree.insert(k * 1024, 100 + k);
        }
        tree
    }

    fn is_leaf(tree: &FreeTree, at: Found) -> bool {
        let n = tree.nodes[tree.path[at.depth] as usize];
        n.left == NIL && n.right == NIL
    }

    #[test]
    fn front_split_below_its_ancestors_max_recomputes_one_node() {
        let mut tree = scrambled_tree(200);
        let mut splits = 0;
        for k in 0..200u64 {
            let (_, hit) = tree.first_fit(k * 1024, 1);
            let (hit, _) = hit.expect("the block itself");
            let parent_max = match hit.depth {
                0 => continue,
                d => tree.nodes[tree.path[d - 1] as usize].max,
            };
            // A leaf is its own subtree's `max`; its parent's is larger.
            if !is_leaf(&tree, hit) || parent_max <= hit.size {
                continue;
            }
            let before = tree.stats().recomputes;
            tree.update_on_path(hit, hit.addr + 16, hit.size - 16);
            assert_eq!(
                tree.stats().recomputes - before,
                1,
                "split of 0x{:x}",
                hit.addr
            );
            splits += 1;
        }
        assert!(splits > 20, "only {splits} leaf splits");
        tree.check_invariants();
        // Growing never looks at a child.
        let (_, hit) = tree.first_fit(0, 1);
        let before = tree.stats().recomputes;
        tree.update_on_path(hit.expect("a block").0, 0, 1 << 20);
        assert_eq!(tree.stats().recomputes, before);
        tree.check_invariants();
    }

    #[test]
    fn insert_recomputes_only_the_new_node() {
        let mut tree = FreeTree::new();
        let mut leaves = 0;
        for k in (0..1000u64).map(|i| i * 7919 % 1000) {
            let before = tree.stats().recomputes;
            let found = tree.insert(k * 1024, 100 + k);
            // A new leaf split nothing below it.
            if is_leaf(&tree, found) {
                assert_eq!(
                    tree.stats().recomputes - before,
                    1,
                    "insert of 0x{:x}",
                    found.addr
                );
                leaves += 1;
            }
        }
        assert!(leaves > 200, "only {leaves} leaf inserts");
        tree.check_invariants();
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
            assert_eq!(fit(&mut tree, from, need), expect);
            let visits = tree.stats().node_visits - before;
            assert!(visits <= 6 * log2, "{visits} node visits for {HOLES} holes");
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// A new block `gap` bytes above block `i - 1`, or above the
        /// topmost block for `None`.
        Insert(Option<usize>, u64, u64),
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
                (block(), 0u64..300, 1u64..200).prop_map(|(i, gap, s)| Op::Insert(Some(i), gap, s)),
                (block(), 0u64..300, 1u64..200).prop_map(|(i, gap, s)| Op::Insert(Some(i), gap, s)),
                (0u64..300, 1u64..200).prop_map(|(gap, s)| Op::Insert(None, gap, s)),
                (0u64..300, 1u64..200).prop_map(|(gap, s)| Op::Insert(None, gap, s)),
                block().prop_map(Op::Remove),
                (block(), 1u64..200).prop_map(|(i, by)| Op::Shrink(i, by)),
                (block(), 0u64..200, 0u64..200).prop_map(|(i, d, u)| Op::Grow(i, d, u)),
                (0u64..40_000, 1u64..400).prop_map(|(from, need)| Op::Find(from, need)),
            ],
            1..300,
        )
    }

    /// Where the block before / after `model[i]` ends / starts.
    fn end_below(model: &[(u64, u64)], i: usize) -> u64 {
        match i {
            0 => 0,
            _ => model[i - 1].0 + model[i - 1].1,
        }
    }

    fn start_above(model: &[(u64, u64)], i: usize) -> u64 {
        model.get(i + 1).map_or(u64::MAX, |b| b.0)
    }

    /// Checks one probe's walks against the sorted `Vec`, then edits a
    /// copy of the tree (and of the model) through each walk's path, so
    /// the script's own tree keeps growing.
    fn probe(tree: &FreeTree, model: &[(u64, u64)], from: u64, need: u64) {
        let (mut tree, mut model) = (tree.clone(), model.to_vec());
        let below = |model: &[(u64, u64)], addr: u64| model.iter().filter(|b| b.0 < addr).count();
        // First fit: the hit, rank(from) and rank(hit).
        let expect = model.iter().position(|b| b.0 >= from && b.1 >= need);
        let (rank_from, hit) = tree.first_fit(from, need);
        assert_eq!(rank_from, below(&model, from), "rank({from})");
        assert_eq!(
            hit.map(|(f, rank)| (block(f), rank)),
            expect.map(|i| (model[i], i))
        );
        if let (Some((hit, _)), Some(i)) = (hit, expect) {
            // A placement: split the front off, or take the whole block.
            if need < hit.size {
                tree.update_on_path(hit, hit.addr + need, hit.size - need);
                model[i] = (hit.addr + need, hit.size - need);
            } else {
                tree.remove_on_path(hit);
                model.remove(i);
            }
            assert_eq!(tree.check_invariants(), model);
        }
        // Address neighbours of a non-block address.
        if model.iter().any(|b| b.0 == from) {
            return;
        }
        let i = below(&model, from);
        let (pred, succ) = tree.neighbours_path(from);
        assert_eq!(pred.map(block), i.checked_sub(1).map(|p| model[p]));
        assert_eq!(succ.map(block), model.get(i).copied());
        match (pred, succ) {
            // A two-sided coalesce: the lower block absorbs the upper.
            (Some(pred), Some(succ)) => {
                let end = succ.addr + succ.size;
                tree.update_on_path(pred, pred.addr, end - pred.addr);
                tree.remove_on_path(succ);
                model[i - 1] = (pred.addr, end - pred.addr);
                model.remove(i);
            }
            // The upper block grows down to `from`.
            (None, Some(succ)) => {
                let end = succ.addr + succ.size;
                tree.update_on_path(succ, from, end - from);
                model[i] = (from, end - from);
            }
            // The topmost block grows by `need`.
            (Some(pred), None) => {
                tree.update_on_path(pred, pred.addr, pred.size + need);
                model[i - 1].1 += need;
            }
            (None, None) => {}
        }
        assert_eq!(tree.check_invariants(), model);
    }

    proptest! {
        /// Inserts, removals and in-place moves/resizes keep the tree
        /// answering exactly like a sorted vector of blocks, and an edit
        /// through the path a walk left behind keeps it well-formed.
        /// Inserts above the topmost block always land, so a script of
        /// 250+ ops grows the tree to about 50 blocks (28 to 76 over
        /// 256 cases).
        #[test]
        fn tree_matches_sorted_vec_model(script in ops()) {
            let mut tree = FreeTree::new();
            let mut model: Vec<(u64, u64)> = Vec::new();
            for op in script {
                let mut probes = vec![(0, 1), (0, 150), (20_000, 50)];
                match op {
                    Op::Insert(i, gap, size) => {
                        let i = i.map_or(model.len(), |i| i % (model.len() + 1));
                        let addr = end_below(&model, i) + gap;
                        if model.get(i).is_none_or(|b| addr + size <= b.0) {
                            tree.insert(addr, size);
                            model.insert(i, (addr, size));
                            probes.push((addr, size));
                        }
                    }
                    Op::Remove(i) if !model.is_empty() => {
                        let (addr, _) = model.remove(i % model.len());
                        let (_, hit) = tree.first_fit(addr, 1);
                        tree.remove_on_path(hit.expect("the block itself").0);
                        probes.push((addr, 1));
                    }
                    Op::Shrink(i, by) if !model.is_empty() => {
                        let i = i % model.len();
                        let b = &mut model[i];
                        if by < b.1 {
                            let (_, hit) = tree.first_fit(b.0, 1);
                            let (hit, _) = hit.expect("the block itself");
                            tree.update_on_path(hit, b.0 + by, b.1 - by);
                            *b = (b.0 + by, b.1 - by);
                            probes.push(*b);
                        }
                    }
                    Op::Grow(i, down, up) if !model.is_empty() => {
                        let i = i % model.len();
                        let (addr, size) = model[i];
                        let lo = addr.saturating_sub(down).max(end_below(&model, i));
                        let hi = (addr + size + up).min(start_above(&model, i));
                        let (_, hit) = tree.first_fit(addr, 1);
                        let (hit, _) = hit.expect("the block itself");
                        tree.update_on_path(hit, lo, hi - lo);
                        model[i] = (lo, hi - lo);
                        probes.push((lo + 1, hi - lo));
                    }
                    Op::Find(from, need) => probes.push((from, need)),
                    _ => {}
                }
                assert_eq!(tree.check_invariants(), model);
                assert_eq!(tree.last().map(block), model.last().copied());
                for (from, need) in probes {
                    probe(&tree, &model, from, need);
                }
            }
        }
    }
}
