//! Address-ordered free-block tree for the first-fit heap.
//!
//! The paper's first-fit allocator scans its free list linearly from a
//! roving pointer. [`FreeTree`] holds the same free list as one B+-tree
//! keyed by block address: leaves of up to [`B`] blocks in sorted
//! parallel `addr`/`size` arrays, and internal entries that carry each
//! child subtree's first address (which routes a descent), its largest
//! block size `max` (so a search skips subtrees too small to fit) and
//! its block `count` (so the blocks the linear scan would have examined
//! are a difference of two ranks, summed by the same walk, keeping
//! `OpCounts::search_steps` byte-identical; DESIGN.md §11.1).
//!
//! Every walk returns a [`Found`] naming the leaf slot it reached, and
//! the edit that follows goes through that slot. A block that shrinks
//! from the front, grows or absorbs a neighbour keeps its slot; only a
//! block that appears or disappears shifts slots, splitting a full leaf
//! or rebalancing one below a quarter full. Each edit repairs only the
//! summaries it changes, climbing parent links.

use std::ops::Range;

/// Free blocks per leaf. DESIGN.md §11.1 has the measurements behind
/// the choice.
const B: usize = 128;
/// Children per internal node: few enough that a scan of a node's
/// entries stays short on the widest heaps.
const FAN: usize = 16;
/// Sentinel node index (the root's parent).
const NIL: u32 = u32::MAX;

/// The tree's own search work, exported as `lifepred_sim_index_*`
/// metrics (no counterpart in the paper's linear scan, so not in
/// [`OpCounts`](crate::OpCounts)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct IndexStats {
    /// Searches that found a fitting free block (every first-fit
    /// placement that did not require growing the heap).
    pub hits: u64,
    /// Nodes, leaves and internal alike, that [`FreeTree::first_fit`]
    /// walks touch: the start address's root-to-leaf path, plus each
    /// node entered below an ancestor to reach a hit.
    pub node_visits: u64,
    /// Node rescans: passes over a node's entries to re-derive its
    /// `max`. Not exported; it pins that edits repair only what they
    /// change.
    pub(crate) recomputes: u64,
}

/// A free block as `(address, size)`.
pub(crate) type FreeBlock = (u64, u64);

/// A free block a walk reached, in slot `slot` of leaf `leaf`. In-place
/// edits move no slot, so it stays valid until a block is inserted or
/// removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Found {
    pub(crate) addr: u64,
    pub(crate) size: u64,
    leaf: u32,
    slot: usize,
}

/// A leaf (`level` 0) or an internal node; both kinds share one layout
/// and one arena.
#[derive(Debug, Clone)]
struct Node {
    /// Leaf: block addresses. Internal: each child's first address.
    key: [u64; B],
    /// Leaf: block sizes. Internal: each child's largest block size.
    val: [u64; B],
    /// Internal: blocks under each child.
    count: [u32; B],
    /// Internal: each child's arena slot.
    child: [u32; B],
    len: usize,
    level: u32,
    parent: u32,
    /// This node's entry in `parent`.
    pos: usize,
}

impl Node {
    /// Most entries the node holds; a non-root node holding fewer than
    /// a quarter of them merges with, or borrows from, a sibling.
    fn cap(&self) -> usize {
        match self.level {
            0 => B,
            _ => FAN,
        }
    }
}

/// The free blocks of one heap, ordered by address.
#[derive(Debug, Clone)]
pub(crate) struct FreeTree {
    nodes: Vec<Node>,
    /// Recycled node slots.
    spare: Vec<u32>,
    root: u32,
    /// Where the last [`neighbours_path`](Self::neighbours_path) or
    /// [`last`](Self::last) walk would insert its address: leaf, slot.
    hole: (u32, usize),
    stats: IndexStats,
}

impl FreeTree {
    pub(crate) fn new() -> FreeTree {
        let mut tree = FreeTree {
            nodes: Vec::new(),
            spare: Vec::new(),
            root: 0,
            hole: (0, 0),
            stats: IndexStats::default(),
        };
        tree.root = tree.new_node(0);
        tree
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
    fn node(&self, t: u32) -> &Node {
        &self.nodes[t as usize]
    }

    #[inline]
    fn node_mut(&mut self, t: u32) -> &mut Node {
        &mut self.nodes[t as usize]
    }

    /// An empty node at `level`, in a recycled slot if there is one.
    fn new_node(&mut self, level: u32) -> u32 {
        let t = self.spare.pop().unwrap_or_else(|| {
            assert!(self.nodes.len() < NIL as usize, "free tree full");
            let (key, count) = ([0; B], [0; B]);
            let (len, parent, pos) = (0, NIL, 0);
            let node = Node {
                key,
                val: key,
                count,
                child: count,
                len,
                level,
                parent,
                pos,
            };
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        });
        let n = self.node_mut(t);
        (n.len, n.level, n.parent) = (0, level, NIL);
        t
    }

    /// Returns `t`'s slot for reuse, emptied so that no stale [`Found`]
    /// matches a block in it.
    fn free_node(&mut self, t: u32) {
        self.node_mut(t).len = 0;
        self.spare.push(t);
    }

    /// Blocks under entries `range` of `t`.
    #[inline]
    fn blocks(&self, t: u32, range: Range<usize>) -> usize {
        let n = self.node(t);
        match n.level {
            0 => range.len(),
            _ => n.count[range].iter().map(|&c| c as usize).sum(),
        }
    }

    /// Blocks under `t`.
    fn count(&self, t: u32) -> u32 {
        self.blocks(t, 0..self.node(t).len) as u32
    }

    /// Largest block size under `t`, by one rescan of its entries.
    fn rescan(&mut self, t: u32) -> u64 {
        self.stats.recomputes += 1;
        let n = self.node(t);
        // Four running maxima, for instruction-level parallelism.
        let (mut m, entries) = ([0; 4], &n.val[..n.len]);
        for four in entries.chunks_exact(4) {
            for (m, &v) in m.iter_mut().zip(four) {
                *m = v.max(*m);
            }
        }
        for &v in entries.chunks_exact(4).remainder() {
            m[0] = v.max(m[0]);
        }
        m[0].max(m[1]).max(m[2].max(m[3]))
    }

    /// The leaf whose address range holds `addr` (the leftmost one for
    /// an address below every block), the blocks in the leaves before
    /// it, and the nodes the descent touched. Also the highest entry
    /// on the way whose `max` is below `need`, as the node, the entry
    /// after it and the blocks up to that entry.
    #[inline]
    fn descend(&self, addr: u64, need: u64) -> (u32, usize, u64, Option<(u32, usize, usize)>) {
        let (mut t, mut rank, mut visits, mut no_fit) = (self.root, 0, 1, None);
        loop {
            let n = self.node(t);
            if n.level == 0 {
                return (t, rank, visits, no_fit);
            }
            // A branch-free count beats a binary search over a node's
            // few children.
            let j = n.key[1..n.len]
                .iter()
                .filter(|&&first| first <= addr)
                .count();
            rank += self.blocks(t, 0..j);
            if no_fit.is_none() && n.val[j] < need {
                no_fit = Some((t, j + 1, rank + n.count[j] as usize));
            }
            t = n.child[j];
            visits += 1;
        }
    }

    /// First (lowest-address) free block at address ≥ `from` with size
    /// ≥ `need`, with the order statistics the linear scan's step count
    /// needs: returns `rank(from)`, the number of free blocks below
    /// `from`, and on a hit the block and its own rank.
    ///
    /// One walk: the descent to `from`'s leaf sums the `count`s of the
    /// subtrees it passes into `rank(from)`. The scan then runs forward
    /// from `from`'s slot to the end of the leaf — or from just past the
    /// highest subtree on the way down whose `max` rules out a fit —
    /// then climbs, skipping every later sibling whose `max` rules out a
    /// fit (and summing its `count`), and enters the first one whose
    /// `max` promises one, down to the hit.
    ///
    /// `near` is a position `from` may still belong at (where the last
    /// placement left the rover): if `from` belongs at that slot or one
    /// slot either side, the walk starts there and sums `rank(from)` up
    /// the leaf's ancestors instead of descending. Any other hint is
    /// ignored.
    pub(crate) fn first_fit(
        &mut self,
        from: u64,
        need: u64,
        near: Option<Found>,
    ) -> (usize, Option<(Found, usize)>) {
        let root = self.node(self.root);
        let (mut t, mut i, mut rank, mut visits, rank_from);
        if root.len == 0 || from <= root.key[0] {
            // Every block is at or above `from` (a wrap to the heap's
            // base): the scan starts at the root's first entry.
            (t, i, rank, visits, rank_from) = (self.root, 0, 0, 1, 0);
        } else if let Some((leaf, slot)) = near.and_then(|at| self.holding(at, from)) {
            let (mut c, mut before, mut touched) = (leaf, slot, 1);
            while let Some(p) = Some(self.node(c).parent).filter(|&p| p != NIL) {
                before += self.blocks(p, 0..self.node(c).pos);
                (c, touched) = (p, touched + 1);
            }
            (t, i, rank, visits, rank_from) = (leaf, slot, before, touched, before);
        } else {
            let (leaf, before, descended, no_fit) = self.descend(from, need);
            let n = self.node(leaf);
            let slot = n.key[..n.len].partition_point(|&addr| addr < from);
            rank_from = before + slot;
            (t, i, rank, visits) = match no_fit {
                Some((node, next, blocks)) => (node, next, blocks, descended),
                None => (leaf, slot, rank_from, descended),
            };
        }
        let hit = loop {
            let n = self.node(t);
            if let Some(k) = n.val[i..n.len].iter().position(|&v| v >= need) {
                rank += self.blocks(t, i..i + k);
                if n.level == 0 {
                    break Some(self.found(t, i + k));
                }
                (t, i) = (n.child[i + k], 0);
                visits += 1;
            } else {
                rank += self.blocks(t, i..n.len);
                if n.parent == NIL {
                    break None;
                }
                (t, i) = (n.parent, n.pos + 1);
            }
        };
        self.stats.node_visits += visits;
        let hit = hit.map(|found| {
            self.stats.hits += 1;
            (found, rank)
        });
        (rank_from, hit)
    }

    /// The leaf slot at or next to `at` where `addr` belongs: the slot
    /// of the block at `addr`, or of the first block above it when the
    /// block below it is in the same leaf. A freed node has no entries,
    /// so a stale position finds nothing.
    fn holding(&self, at: Found, addr: u64) -> Option<(u32, usize)> {
        let n = self.nodes.get(at.leaf as usize).filter(|n| n.level == 0)?;
        let near = [at.slot, at.slot.wrapping_add(1), at.slot.wrapping_sub(1)];
        let slot = near.into_iter().find(|&s| {
            s < n.len
                && addr <= n.key[s]
                && match s {
                    0 => addr == n.key[0],
                    _ => n.key[s - 1] < addr,
                }
        })?;
        Some((at.leaf, slot))
    }

    /// The free block in slot `slot` of leaf `leaf`.
    fn found(&self, leaf: u32, slot: usize) -> Found {
        let n = self.node(leaf);
        Found {
            addr: n.key[slot],
            size: n.val[slot],
            leaf,
            slot,
        }
    }

    /// The free blocks nearest below and above `addr`, which is not
    /// itself a free block's address, in one descent: both are next to
    /// `addr`'s slot, in its leaf or at the edge of the next leaf.
    /// Either can be edited through the returned [`Found`], and a block
    /// at `addr` can then be inserted with
    /// [`insert_on_path`](Self::insert_on_path).
    pub(crate) fn neighbours_path(&mut self, addr: u64) -> (Option<Found>, Option<Found>) {
        let (t, ..) = self.descend(addr, 0);
        let n = self.node(t);
        let (i, len) = (n.key[..n.len].partition_point(|&a| a < addr), n.len);
        debug_assert!(i == len || n.key[i] != addr, "0x{addr:x} is a free block");
        self.hole = (t, i);
        let pred = i.checked_sub(1).map(|s| self.found(t, s));
        let succ = match i < len {
            true => Some(self.found(t, i)),
            false => self.next_leaf(t).map(|leaf| self.found(leaf, 0)),
        };
        (pred, succ)
    }

    /// The leaf after leaf `t` in address order.
    fn next_leaf(&self, mut t: u32) -> Option<u32> {
        loop {
            let n = self.node(t);
            let p = (n.parent != NIL).then_some(n.parent)?;
            if n.pos + 1 < self.node(p).len {
                t = self.node(p).child[n.pos + 1];
                break;
            }
            t = p;
        }
        while self.node(t).level > 0 {
            t = self.node(t).child[0];
        }
        Some(t)
    }

    /// The highest-address free block, reached down the right spine;
    /// an address above every free block can then be inserted with
    /// [`insert_on_path`](Self::insert_on_path).
    pub(crate) fn last(&mut self) -> Option<Found> {
        let mut t = self.root;
        while self.node(t).level > 0 {
            let n = self.node(t);
            t = n.child[n.len - 1];
        }
        let len = self.node(t).len;
        self.hole = (t, len);
        len.checked_sub(1).map(|s| self.found(t, s))
    }

    /// Copies `t`'s first address into its parent entry, and on up while
    /// `t` is its parent's first child.
    fn fix_first(&mut self, mut t: u32) {
        let first = self.node(t).key[0];
        while let Some(p) = Some(self.node(t).parent).filter(|&p| p != NIL) {
            let pos = self.node(t).pos;
            self.node_mut(p).key[pos] = first;
            if pos != 0 {
                return;
            }
            t = p;
        }
    }

    /// Carries a change of one entry of `t`, from `old` to `new`, up the
    /// `max`es of `t`'s ancestor entries, stopping at the first that
    /// does not move. Only an entry whose `max` was `old` and shrank
    /// rescans its child.
    fn fix_max(&mut self, mut t: u32, mut old: u64, mut new: u64) {
        while old != new {
            let (p, pos) = (self.node(t).parent, self.node(t).pos);
            if p == NIL {
                return;
            }
            let was = self.node(p).val[pos];
            let now = match (new >= was, old < was) {
                (true, _) => new,
                (false, true) => return,
                (false, false) => self.rescan(t),
            };
            self.node_mut(p).val[pos] = now;
            (old, new, t) = (was, now, p);
        }
    }

    /// Adds `delta` to the `count` of each of `t`'s ancestor entries.
    fn add_count(&mut self, mut t: u32, delta: i32) {
        while let Some(p) = Some(self.node(t).parent).filter(|&p| p != NIL) {
            let pos = self.node(t).pos;
            let count = &mut self.node_mut(p).count[pos];
            *count = count.wrapping_add_signed(delta);
            t = p;
        }
    }

    /// Moves and/or resizes the free block `at` in its slot, repairing
    /// the ancestors' first addresses and `max`es as far as they move;
    /// returns the block as it now is. The caller guarantees the new
    /// extent stays between the block's address neighbours (a front
    /// split, a coalesce or heap growth), so no slot moves and no
    /// `count` changes.
    pub(crate) fn update_on_path(&mut self, at: Found, new_addr: u64, new_size: u64) -> Found {
        let n = self.node_mut(at.leaf);
        debug_assert_eq!(n.key[at.slot], at.addr, "stale position");
        n.key[at.slot] = new_addr;
        n.val[at.slot] = new_size;
        if at.slot == 0 {
            self.fix_first(at.leaf);
        }
        self.fix_max(at.leaf, at.size, new_size);
        Found {
            addr: new_addr,
            size: new_size,
            ..at
        }
    }

    /// Registers the free block `[addr, addr + size)`; the caller
    /// guarantees no free block starts at `addr`, and that the last
    /// walk was [`neighbours_path`](Self::neighbours_path) at `addr`, or
    /// [`last`](Self::last) when `addr` is above every free block. The
    /// block goes into the slot that walk found, after a split if the
    /// leaf is full.
    pub(crate) fn insert_on_path(&mut self, addr: u64, size: u64) -> Found {
        let (t, i) = self.hole;
        debug_assert!(
            i <= self.node(t).len
                && (i == 0 || self.node(t).key[i - 1] < addr)
                && (i == self.node(t).len || addr < self.node(t).key[i]),
            "0x{addr:x} does not belong at the last walk's slot"
        );
        let (t, i) = self.open(t, i);
        let n = self.node_mut(t);
        n.key[i] = addr;
        n.val[i] = size;
        self.add_count(t, 1);
        if i == 0 {
            self.fix_first(t);
        }
        self.fix_max(t, 0, size);
        self.found(t, i)
    }

    /// Forgets the free block `at`: closes its slot, repairs the
    /// ancestors, and rebalances the leaf if it fell below a quarter
    /// full.
    pub(crate) fn remove_on_path(&mut self, at: Found) {
        let t = at.leaf;
        debug_assert_eq!(self.node(t).key[at.slot], at.addr, "stale position");
        self.shift(t, at.slot + 1, at.slot);
        self.add_count(t, -1);
        if at.slot == 0 && self.node(t).len > 0 {
            self.fix_first(t);
        }
        self.fix_max(t, at.size, 0);
        self.rebalance(t);
    }

    /// Points the children in entries `from..` of the internal node `t`
    /// back at their entries.
    fn adopt(&mut self, t: u32, from: usize) {
        let n = self.node(t);
        if n.level == 0 {
            return;
        }
        for j in from..n.len {
            let c = self.node(t).child[j];
            let c = self.node_mut(c);
            (c.parent, c.pos) = (t, j);
        }
    }

    /// Moves entries `from..len` of `t` to start at `to`, opening or
    /// closing a gap.
    fn shift(&mut self, t: u32, from: usize, to: usize) {
        let n = self.node_mut(t);
        let len = n.len;
        n.key.copy_within(from..len, to);
        n.val.copy_within(from..len, to);
        if n.level > 0 {
            n.count.copy_within(from..len, to);
            n.child.copy_within(from..len, to);
        }
        n.len = len + to - from;
        self.adopt(t, to);
    }

    /// Copies entries `range` of `s` to entries `to..` of `d`, and
    /// extends `d` over them.
    fn copy_entries(&mut self, s: u32, range: Range<usize>, d: u32, to: usize) {
        let end = to + range.len();
        let [s, dn] = self
            .nodes
            .get_disjoint_mut([s as usize, d as usize])
            .expect("two distinct nodes");
        dn.key[to..end].copy_from_slice(&s.key[range.clone()]);
        dn.val[to..end].copy_from_slice(&s.val[range.clone()]);
        if s.level > 0 {
            dn.count[to..end].copy_from_slice(&s.count[range.clone()]);
            dn.child[to..end].copy_from_slice(&s.child[range]);
        }
        dn.len = dn.len.max(end);
        self.adopt(d, to);
    }

    /// Recomputes entry `j` of `p` from its child.
    fn summarize(&mut self, p: u32, j: usize) {
        let c = self.node(p).child[j];
        let (first, max, count) = (self.node(c).key[0], self.rescan(c), self.count(c));
        let e = self.node_mut(p);
        (e.key[j], e.val[j], e.count[j]) = (first, max, count);
    }

    /// Opens a gap at entry `i` of `t`, splitting `t` first when it is
    /// full; returns where the gap now is.
    fn open(&mut self, t: u32, i: usize) -> (u32, usize) {
        let (len, half) = (self.node(t).len, self.node(t).cap() / 2);
        let (t, i) = match len < 2 * half {
            true => (t, i),
            false => {
                let r = self.split(t);
                if i <= half {
                    (t, i)
                } else {
                    (r, i - half)
                }
            }
        };
        self.shift(t, i, i + 1);
        (t, i)
    }

    /// Moves the upper half of the full node `t` to a new right sibling
    /// and enters it in their parent, growing a new root above `t` when
    /// `t` is the root; returns the sibling. The parent's own summary
    /// does not change.
    fn split(&mut self, t: u32) -> u32 {
        let (level, cap) = (self.node(t).level, self.node(t).cap());
        let r = self.new_node(level);
        self.copy_entries(t, cap / 2..cap, r, 0);
        self.node_mut(t).len = cap / 2;
        if self.node(t).parent == NIL {
            let root = self.new_node(level + 1);
            let n = self.node_mut(root);
            (n.len, n.child[0]) = (1, t);
            self.adopt(root, 0);
            self.root = root;
        }
        // Opening the gap may split the parent; the gap stays next to `t`.
        let (p, pos) = (self.node(t).parent, self.node(t).pos);
        let (p, j) = self.open(p, pos + 1);
        self.node_mut(p).child[j] = r;
        self.adopt(p, j);
        self.summarize(p, j - 1);
        self.summarize(p, j);
        r
    }

    /// Restores `t` after it lost an entry. Below a quarter of its
    /// capacity a non-root node merges with a sibling when both fit in
    /// one node, and otherwise shares their entries evenly; a root left
    /// with one child hands the root to it.
    fn rebalance(&mut self, t: u32) {
        let n = self.node(t);
        let (p, pos, len) = (n.parent, n.pos, n.len);
        if p == NIL {
            if n.level > 0 && len == 1 {
                self.root = n.child[0];
                self.node_mut(self.root).parent = NIL;
                self.free_node(t);
            }
            return;
        }
        let cap = n.cap();
        if len >= cap / 4 {
            return;
        }
        let j = match pos + 1 < self.node(p).len {
            true => pos,
            false => pos - 1,
        };
        let (l, r) = (self.node(p).child[j], self.node(p).child[j + 1]);
        let (ll, rl) = (self.node(l).len, self.node(r).len);
        if ll + rl <= cap {
            self.copy_entries(r, 0..rl, l, ll);
            self.free_node(r);
            self.shift(p, j + 2, j + 1);
            self.summarize(p, j);
            self.rebalance(p);
            return;
        }
        let half = (ll + rl) / 2;
        if ll < half {
            self.copy_entries(r, 0..half - ll, l, ll);
            self.shift(r, half - ll, 0);
        } else {
            self.shift(r, 0, ll - half);
            self.copy_entries(l, half..ll, r, 0);
            self.node_mut(l).len = half;
        }
        self.summarize(p, j);
        self.summarize(p, j + 1);
    }

    /// Panics unless the tree is a well-formed B+-tree with correct
    /// summaries (address order, every node but the root at least a
    /// quarter full, every leaf at level 0, parent links, each entry's
    /// first address, `max` and `count`, no leaked slot); returns the
    /// free blocks in address order. Used by `FirstFit::check_invariants`.
    pub(crate) fn check_invariants(&self) -> Vec<FreeBlock> {
        let root = self.node(self.root);
        assert_eq!(root.parent, NIL, "root has a parent");
        assert!(root.level == 0 || root.len >= 2, "root with one child");
        let (mut blocks, mut nodes) = (Vec::new(), 0);
        self.check_node(self.root, &mut blocks, &mut nodes);
        assert!(
            blocks.windows(2).all(|w| w[0].0 < w[1].0),
            "free tree out of address order"
        );
        assert_eq!(
            nodes + self.spare.len(),
            self.nodes.len(),
            "free tree leaked a node slot"
        );
        blocks
    }

    /// Checks the subtree at `t`, appending its blocks in order; returns
    /// its `(count, max)`.
    fn check_node(&self, t: u32, out: &mut Vec<FreeBlock>, nodes: &mut usize) -> (u32, u64) {
        *nodes += 1;
        let n = self.node(t);
        assert!(n.len <= n.cap(), "overfull node");
        assert!(t == self.root || 4 * n.len >= n.cap(), "underfull node {t}");
        if n.level == 0 {
            out.extend((0..n.len).map(|s| (n.key[s], n.val[s])));
            assert!(n.val[..n.len].iter().all(|&v| v > 0), "empty free block");
            return (
                n.len as u32,
                n.val[..n.len].iter().copied().max().unwrap_or(0),
            );
        }
        let (mut count, mut max) = (0, 0);
        for j in 0..n.len {
            let c = self.node(n.child[j]);
            assert_eq!(
                (c.parent, c.pos, c.level),
                (t, j, n.level - 1),
                "broken link"
            );
            let start = out.len();
            let (cc, cm) = self.check_node(n.child[j], out, nodes);
            assert_eq!(n.key[j], out[start].0, "stale first address");
            assert_eq!((n.count[j], n.val[j]), (cc, cm), "stale count or max");
            (count, max) = (count + cc, max.max(cm));
        }
        (count, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    impl FreeTree {
        /// [`insert_on_path`](Self::insert_on_path) after a walk of its
        /// own.
        fn insert(&mut self, addr: u64, size: u64) -> Found {
            self.neighbours_path(addr);
            self.insert_on_path(addr, size)
        }
    }

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
        tree.first_fit(from, need, None)
            .1
            .map(|(hit, _)| block(hit))
    }

    /// Levels above the leaves.
    fn height(tree: &FreeTree) -> u32 {
        tree.node(tree.root).level
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
        assert_eq!(tree.first_fit(1, 40, None).0, 1);
        assert_eq!(tree.first_fit(1, 40, None).1.map(|(_, rank)| rank), Some(2));
    }

    #[test]
    fn edits_reuse_the_walks_path() {
        let mut tree = tree_of(&[(0, 16), (64, 48), (256, 16)]);
        let (_, hit) = tree.first_fit(1, 32, None);
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

    /// Leaves and internal nodes freed by merges and root collapses are
    /// reused: refilling the tree allocates no new slot.
    #[test]
    fn leaf_and_internal_slots_are_recycled() {
        const N: u64 = 20_000;
        let mut tree = FreeTree::new();
        for k in 0..N {
            tree.insert(k * 32, 16);
        }
        assert!(height(&tree) >= 2, "internal nodes below the root");
        let allocated = tree.nodes.len();
        for k in 0..N {
            let (pred, succ) = tree.neighbours_path(k * 32 + 1);
            assert_eq!(
                succ.map(|s| s.addr),
                Some(k * 32 + 32).filter(|&a| a < N * 32)
            );
            tree.remove_on_path(pred.expect("the block itself"));
        }
        assert_eq!((height(&tree), tree.len()), (0, 0));
        assert_eq!(tree.spare.len(), allocated - 1);
        for k in 0..N {
            tree.insert(k * 32 + 8, 16);
        }
        assert_eq!(tree.nodes.len(), allocated, "slots must be recycled");
        assert_eq!(tree.check_invariants().len(), N as usize);
    }

    /// A leaf merged into its sibling keeps nothing a stale position
    /// could match: the search from it descends instead.
    #[test]
    fn a_stale_position_in_a_merged_leaf_is_ignored() {
        let mut tree = FreeTree::new();
        for k in 0..150 {
            tree.insert(k * 64, 16);
        }
        let (_, hit) = tree.first_fit(140 * 64, 1, None);
        let (at, _) = hit.expect("the block itself");
        // The left leaf holds 64 blocks; the 33rd removal merges the
        // right one into it and hands the root to the merged leaf.
        for k in 0..33 {
            let (_, hit) = tree.first_fit(k * 64, 1, None);
            tree.remove_on_path(hit.expect("the block itself").0);
        }
        assert_eq!(height(&tree), 0);
        let descended = tree.first_fit(at.addr, 1, None);
        assert_ne!(descended.1.map(|(f, _)| f.leaf), Some(at.leaf));
        assert_eq!(tree.first_fit(at.addr, 1, Some(at)), descended);
        tree.check_invariants();
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

    /// The largest block in `at`'s leaf.
    fn leaf_max(tree: &FreeTree, at: Found) -> u64 {
        let n = tree.node(at.leaf);
        n.val[..n.len].iter().copied().max().unwrap_or(0)
    }

    #[test]
    fn front_split_of_a_block_below_its_leafs_max_rescans_nothing() {
        let mut tree = scrambled_tree(2000);
        assert!(height(&tree) > 0);
        let mut splits = 0;
        for k in 0..2000u64 {
            let (_, hit) = tree.first_fit(k * 1024, 1, None);
            let (hit, _) = hit.expect("the block itself");
            if leaf_max(&tree, hit) <= hit.size {
                continue;
            }
            let before = tree.stats().recomputes;
            tree.update_on_path(hit, hit.addr + 16, hit.size - 16);
            assert_eq!(tree.stats().recomputes, before, "split of 0x{:x}", hit.addr);
            splits += 1;
        }
        assert!(splits > 1500, "only {splits} splits below a leaf's max");
        tree.check_invariants();
        // Growing never rescans.
        let (_, hit) = tree.first_fit(0, 1, None);
        let before = tree.stats().recomputes;
        tree.update_on_path(hit.expect("a block").0, 0, 1 << 20);
        assert_eq!(tree.stats().recomputes, before);
        tree.check_invariants();
    }

    #[test]
    fn insert_into_a_leaf_with_room_rescans_nothing() {
        let mut tree = FreeTree::new();
        let mut roomy = 0;
        for k in (0..5000u64).map(|i| i * 7919 % 5000) {
            tree.neighbours_path(k * 1024);
            let full = tree.node(tree.hole.0).len == B;
            let before = tree.stats().recomputes;
            tree.insert_on_path(k * 1024, 100 + k);
            if !full {
                assert_eq!(
                    tree.stats().recomputes,
                    before,
                    "insert of 0x{:x}",
                    k * 1024
                );
                roomy += 1;
            }
        }
        assert!(height(&tree) > 0);
        assert!(roomy > 4800, "only {roomy} inserts into a leaf with room");
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

    /// Compares the tree with a map of the same blocks: the blocks, a
    /// few first-fit probes with their ranks, and the topmost block. A
    /// search handed a stale position answers like one that descends.
    fn check_against(tree: &mut FreeTree, model: &BTreeMap<u64, u64>, stale: &[Found]) {
        for &at in stale {
            let descended = tree.first_fit(at.addr, 1, None);
            assert_eq!(tree.first_fit(at.addr, 1, Some(at)), descended);
        }
        let blocks: Vec<FreeBlock> = model.iter().map(|(&a, &s)| (a, s)).collect();
        assert_eq!(tree.check_invariants(), blocks);
        for (from, need) in [(0, 1), (0, 1100), (1 << 20, 900), (u64::MAX, 1)] {
            let expect = blocks.iter().position(|b| b.0 >= from && b.1 >= need);
            let (rank_from, hit) = tree.first_fit(from, need, None);
            assert_eq!(rank_from, blocks.partition_point(|b| b.0 < from));
            assert_eq!(
                hit.map(|(f, r)| (block(f), r)),
                expect.map(|i| (blocks[i], i))
            );
        }
        assert_eq!(tree.last().map(block), blocks.last().copied());
    }

    /// 2¹⁷ blocks grow the tree to three levels; removing them again,
    /// in another order, merges and borrows its nodes back down to one
    /// leaf.
    #[test]
    fn grows_to_three_levels_and_shrinks_to_one_leaf() {
        const N: u64 = 1 << 17;
        const CHECK: u64 = 1 << 13;
        let (mut tree, mut model, mut stale) = (FreeTree::new(), BTreeMap::new(), Vec::new());
        for (i, k) in (0..N).map(|i| (i, i * 7919 % N)) {
            let (addr, size) = (k * 64, 1 + k % 1000);
            let at = tree.insert(addr, size);
            model.insert(addr, size);
            if i % CHECK == 0 {
                check_against(&mut tree, &model, &stale);
                stale.push(at);
            }
        }
        check_against(&mut tree, &model, &stale);
        assert!(height(&tree) >= 2, "height {}", height(&tree));
        // Fewer blocks than a non-root node's minimum fit only in a root leaf.
        for (i, k) in (0..N - B as u64 / 4 + 1).map(|i| (i, i * 104_729 % N)) {
            let (pred, _) = tree.neighbours_path(k * 64 + 1);
            let pred = pred.expect("the block itself");
            assert_eq!(model.remove(&pred.addr), Some(pred.size));
            tree.remove_on_path(pred);
            stale.retain(|at| at.addr != pred.addr);
            if i % CHECK == 0 {
                check_against(&mut tree, &model, &stale);
            }
        }
        check_against(&mut tree, &model, &stale);
        assert_eq!(height(&tree), 0, "one leaf left");
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
                (0u64..300, 1u64..200).prop_map(|(gap, s)| Op::Insert(None, gap, s)),
                (0u64..300, 1u64..200).prop_map(|(gap, s)| Op::Insert(None, gap, s)),
                block().prop_map(Op::Remove),
                (block(), 1u64..200).prop_map(|(i, by)| Op::Shrink(i, by)),
                (block(), 0u64..200, 0u64..200).prop_map(|(i, d, u)| Op::Grow(i, d, u)),
                (0u64..40_000, 1u64..400).prop_map(|(from, need)| Op::Find(from, need)),
            ],
            400..1000,
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
    /// copy of the tree (and of the model) through each walk's
    /// position, so the script's own tree keeps growing.
    fn probe(tree: &FreeTree, model: &[(u64, u64)], from: u64, need: u64) {
        let (mut tree, mut model) = (tree.clone(), model.to_vec());
        let below = |model: &[(u64, u64)], addr: u64| model.iter().filter(|b| b.0 < addr).count();
        // A search that starts at a position near the block at `from`,
        // or at a stale one, answers like one that descends.
        let here = tree.first_fit(from, 1, None).1.map(|(at, _)| at);
        let descended = tree.first_fit(from, need, None);
        for near in [-1, 0, 1, 2].map(|d| {
            here.map(|at| Found {
                slot: at.slot.wrapping_add_signed(d),
                ..at
            })
        }) {
            assert_eq!(tree.first_fit(from, need, near), descended, "near {near:?}");
        }
        // First fit: the hit, rank(from) and rank(hit).
        let expect = model.iter().position(|b| b.0 >= from && b.1 >= need);
        let (rank_from, hit) = tree.first_fit(from, need, None);
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

    /// Applies one script op to the tree and the model; returns the
    /// probes it asks for.
    fn apply(tree: &mut FreeTree, model: &mut Vec<(u64, u64)>, op: Op) -> Vec<(u64, u64)> {
        let mut probes = vec![(0, 1), (0, 150), (20_000, 50)];
        match op {
            Op::Insert(i, gap, size) => {
                let i = i.map_or(model.len(), |i| i % (model.len() + 1));
                let addr = end_below(model, i) + gap;
                if model.get(i).is_none_or(|b| addr + size <= b.0) {
                    tree.insert(addr, size);
                    model.insert(i, (addr, size));
                    probes.push((addr, size));
                }
            }
            Op::Remove(i) if !model.is_empty() => {
                let (addr, _) = model.remove(i % model.len());
                let (_, hit) = tree.first_fit(addr, 1, None);
                tree.remove_on_path(hit.expect("the block itself").0);
                probes.push((addr, 1));
            }
            Op::Shrink(i, by) if !model.is_empty() => {
                let i = i % model.len();
                let b = &mut model[i];
                if by < b.1 {
                    let (_, hit) = tree.first_fit(b.0, 1, None);
                    let (hit, _) = hit.expect("the block itself");
                    tree.update_on_path(hit, b.0 + by, b.1 - by);
                    *b = (b.0 + by, b.1 - by);
                    probes.push(*b);
                }
            }
            Op::Grow(i, down, up) if !model.is_empty() => {
                let i = i % model.len();
                let (addr, size) = model[i];
                let lo = addr.saturating_sub(down).max(end_below(model, i));
                let hi = (addr + size + up).min(start_above(model, i));
                let (_, hit) = tree.first_fit(addr, 1, None);
                let (hit, _) = hit.expect("the block itself");
                tree.update_on_path(hit, lo, hi - lo);
                model[i] = (lo, hi - lo);
                probes.push((lo + 1, hi - lo));
            }
            Op::Find(from, need) => probes.push((from, need)),
            _ => {}
        }
        probes
    }

    proptest! {
        /// Inserts, removals and in-place moves/resizes keep the tree
        /// answering exactly like a sorted vector of blocks, and an edit
        /// through the position a walk returned keeps it well-formed.
        /// Inserts above the topmost block always land, so a script
        /// grows the tree past one 128-block leaf in most cases (and
        /// to about 330 blocks at 900 ops); the script then replays
        /// its removals until the blocks fit in one leaf again, merging
        /// leaves and handing the root back to a leaf.
        #[test]
        fn tree_matches_sorted_vec_model(script in ops()) {
            let mut tree = FreeTree::new();
            let mut model: Vec<(u64, u64)> = Vec::new();
            let drain: Vec<Op> = (script.iter())
                .filter_map(|op| match *op {
                    Op::Insert(i, gap, _) => Some(Op::Remove(i.unwrap_or(gap as usize))),
                    _ => None,
                })
                .collect();
            let mut drain = drain.into_iter().cycle();
            for op in script {
                for (from, need) in apply(&mut tree, &mut model, op) {
                    probe(&tree, &model, from, need);
                }
                assert_eq!(tree.check_invariants(), model);
                assert_eq!(tree.last().map(block), model.last().copied());
            }
            while model.len() >= B / 4 {
                let op = drain.next().expect("an insert behind every block");
                for (from, need) in apply(&mut tree, &mut model, op) {
                    probe(&tree, &model, from, need);
                }
                assert_eq!(tree.check_invariants(), model);
            }
            prop_assert_eq!(height(&tree), 0);
        }
    }
}
