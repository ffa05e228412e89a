//! Call-chains: ordered lists of functions on the call stack.

use crate::registry::FnId;
use std::collections::HashMap;

/// A compact identifier for an interned call-chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChainId(pub(crate) u32);

impl ChainId {
    /// The raw interned index.
    pub fn index(self) -> u32 {
        self.0
    }

    /// Rebuilds an id from [`ChainId::index`], e.g. when deserializing
    /// a trace. Only meaningful against the same chain table.
    pub fn from_index(index: u32) -> ChainId {
        ChainId(index)
    }
}

/// An ordered list of functions, outermost first, innermost last.
///
/// This is the paper's *call-chain*: "the ordered list of functions
/// present on the runtime stack at any particular program event". The
/// innermost element is the function that directly performed the
/// allocation (the paper's length-1 sub-chain).
///
/// # Examples
///
/// ```
/// use lifepred_trace::{CallChain, FunctionRegistry};
///
/// let mut reg = FunctionRegistry::new();
/// let (a, b, c) = (reg.intern("a"), reg.intern("b"), reg.intern("c"));
/// let chain = CallChain::new(vec![a, b, c]);
/// assert_eq!(chain.sub_chain(2).frames(), &[b, c]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct CallChain(Vec<FnId>);

impl CallChain {
    /// Creates a chain from frames ordered outermost-first.
    pub fn new(frames: Vec<FnId>) -> Self {
        CallChain(frames)
    }

    /// The frames, outermost first.
    pub fn frames(&self) -> &[FnId] {
        &self.0
    }

    /// Chain depth.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns `true` for the empty chain (allocation outside any
    /// instrumented function).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The paper's *length-N sub-chain*: the last `n` callers.
    ///
    /// Per the paper, no recursion elimination is applied to length-N
    /// sub-chains (which is why the ∞ row of Table 6 can predict
    /// *less* than the length-7 row).
    pub fn sub_chain(&self, n: usize) -> CallChain {
        let start = self.0.len().saturating_sub(n);
        CallChain(self.0[start..].to_vec())
    }

    /// The complete chain with recursion cycles removed, gprof-style.
    ///
    /// See [`eliminate_cycles`].
    pub fn without_cycles(&self) -> CallChain {
        CallChain(eliminate_cycles(&self.0))
    }

    /// Carter's call-chain encryption key: the XOR of the 16-bit ids of
    /// every frame on the (raw) chain. Maintained incrementally at call
    /// time in a real implementation; computed directly here.
    pub fn encryption_key(&self) -> u16 {
        self.0.iter().fold(0u16, |k, f| k ^ f.encryption_key())
    }
}

impl From<Vec<FnId>> for CallChain {
    fn from(frames: Vec<FnId>) -> Self {
        CallChain::new(frames)
    }
}

/// Removes recursion cycles from a raw stack, outermost-first.
///
/// Mirrors gprof's collapsing of cycles in the dynamic call graph,
/// which the paper adopts: when a function already on the reduced
/// chain reappears, the whole loop back to its first occurrence is
/// collapsed. For example `a b c b d` reduces to `a b d`.
///
/// The result never contains the same function twice, and the
/// operation is idempotent.
pub fn eliminate_cycles(frames: &[FnId]) -> Vec<FnId> {
    let mut out: Vec<FnId> = Vec::with_capacity(frames.len());
    let mut pos: HashMap<FnId, usize> = HashMap::with_capacity(frames.len());
    for &f in frames {
        if let Some(&p) = pos.get(&f) {
            // Collapse the cycle: drop everything after the first
            // occurrence of `f` (keeping `f` itself).
            for dropped in out.drain(p + 1..) {
                pos.remove(&dropped);
            }
        } else {
            pos.insert(f, out.len());
            out.push(f);
        }
    }
    out
}

/// An interning table for call-chains.
///
/// Traces contain millions of allocations but only hundreds to a few
/// thousand distinct chains, so records store a [`ChainId`].
#[derive(Debug, Default, Clone)]
pub struct ChainTable {
    chains: Vec<CallChain>,
    index: HashMap<CallChain, ChainId>,
}

impl ChainTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        ChainTable::default()
    }

    /// Interns the chain formed by `frames` (outermost-first).
    pub fn intern(&mut self, frames: &[FnId]) -> ChainId {
        // Fast path: avoid allocating when the chain is already known.
        // HashMap's raw-entry API is unstable, so we pay one Vec clone
        // on the miss path only.
        if let Some(&id) = self.index.get(frames) {
            return id;
        }
        let chain = CallChain::new(frames.to_vec());
        let id =
            ChainId(u32::try_from(self.chains.len()).expect("more than u32::MAX chains interned"));
        self.chains.push(chain.clone());
        self.index.insert(chain, id);
        id
    }

    /// The chain behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this table.
    pub fn get(&self, id: ChainId) -> &CallChain {
        &self.chains[id.0 as usize]
    }

    /// Number of distinct chains.
    pub fn len(&self) -> usize {
        self.chains.len()
    }

    /// Returns `true` if no chains are interned.
    pub fn is_empty(&self) -> bool {
        self.chains.is_empty()
    }

    /// Iterates over `(id, chain)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ChainId, &CallChain)> {
        self.chains
            .iter()
            .enumerate()
            .map(|(i, c)| (ChainId(i as u32), c))
    }
}

// Allow `index.get(frames)` lookups without building a CallChain.
impl std::borrow::Borrow<[FnId]> for CallChain {
    fn borrow(&self) -> &[FnId] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<FnId> {
        v.iter().map(|&i| FnId(i)).collect()
    }

    #[test]
    fn sub_chain_takes_last_callers() {
        let c = CallChain::new(ids(&[1, 2, 3, 4]));
        assert_eq!(c.sub_chain(1).frames(), &ids(&[4])[..]);
        assert_eq!(c.sub_chain(2).frames(), &ids(&[3, 4])[..]);
        assert_eq!(c.sub_chain(10).frames(), &ids(&[1, 2, 3, 4])[..]);
    }

    #[test]
    fn cycle_elimination_simple_recursion() {
        // a b b b c -> a b c
        assert_eq!(eliminate_cycles(&ids(&[1, 2, 2, 2, 3])), ids(&[1, 2, 3]));
    }

    #[test]
    fn cycle_elimination_mutual_recursion() {
        // a b c b d -> a b d
        assert_eq!(eliminate_cycles(&ids(&[1, 2, 3, 2, 4])), ids(&[1, 2, 4]));
    }

    #[test]
    fn cycle_elimination_idempotent() {
        let raw = ids(&[1, 2, 3, 2, 4, 1, 5]);
        let once = eliminate_cycles(&raw);
        let twice = eliminate_cycles(&once);
        assert_eq!(once, twice);
        // No duplicates remain.
        let mut sorted = once.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), once.len());
    }

    #[test]
    fn cycle_elimination_empty_and_singleton() {
        assert_eq!(eliminate_cycles(&[]), Vec::<FnId>::new());
        assert_eq!(eliminate_cycles(&ids(&[7])), ids(&[7]));
    }

    #[test]
    fn chain_table_interns() {
        let mut t = ChainTable::new();
        let a = t.intern(&ids(&[1, 2]));
        let b = t.intern(&ids(&[1, 3]));
        let a2 = t.intern(&ids(&[1, 2]));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(a).frames(), &ids(&[1, 2])[..]);
    }

    #[test]
    fn encryption_key_is_order_insensitive_xor() {
        let c1 = CallChain::new(ids(&[1, 2, 3]));
        let c2 = CallChain::new(ids(&[3, 2, 1]));
        // XOR is commutative — a known weakness of the scheme worth
        // pinning down in a test (distinct orderings collide).
        assert_eq!(c1.encryption_key(), c2.encryption_key());
        // But chains with different member sets almost surely differ.
        let c3 = CallChain::new(ids(&[1, 2, 4]));
        assert_ne!(c1.encryption_key(), c3.encryption_key());
    }
}
