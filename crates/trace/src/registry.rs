//! Interned function names.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

/// A compact identifier for an interned function name.
///
/// The paper's call-chains are chains *of functions*, so the
/// calling-context tree and the chains store these ids rather than
/// strings. Carter's call-chain encryption additionally relies on
/// per-function 16-bit ids, which each id derives deterministically
/// from its index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FnId(pub(crate) u32);

impl FnId {
    /// The raw interned index.
    pub fn index(self) -> u32 {
        self.0
    }

    /// Rebuilds an id from [`FnId::index`], e.g. when deserializing a
    /// site database. Only meaningful against the same registry.
    pub fn from_index(index: u32) -> FnId {
        FnId(index)
    }

    /// A pseudo-random but deterministic 16-bit id for this function,
    /// as used by call-chain encryption (the paper's §5.1, after
    /// Carter). A multiplicative hash spreads consecutive indices so
    /// XOR-combined keys along a chain are unlikely to collide.
    pub(crate) fn encryption_key(self) -> u16 {
        let h = (self.0 as u64)
            .wrapping_add(0x9e37_79b9_7f4a_7c15)
            .wrapping_mul(0xbf58_476d_1ce4_e5b9);
        ((h >> 32) ^ h) as u16
    }
}

impl fmt::Display for FnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fn#{}", self.0)
    }
}

/// An interning table mapping function names to [`FnId`]s.
///
/// One registry is shared by all runs of the same workload so that
/// sites recorded during a *training* run map onto the sites of a
/// *test* run — the prerequisite for the paper's "true prediction".
#[derive(Debug, Default, Clone)]
pub struct FunctionRegistry {
    names: Vec<String>,
    index: HashMap<String, FnId>,
}

impl FunctionRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        FunctionRegistry::default()
    }

    /// Interns `name`, returning its stable id.
    pub fn intern(&mut self, name: &str) -> FnId {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id =
            FnId(u32::try_from(self.names.len()).expect("more than u32::MAX functions interned"));
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), id);
        id
    }

    /// Looks up a previously interned name.
    pub fn get(&self, name: &str) -> Option<FnId> {
        self.index.get(name).copied()
    }

    /// The name behind `id`, or `None` if `id` came from another registry.
    pub fn name(&self, id: FnId) -> Option<&str> {
        self.names.get(id.0 as usize).map(String::as_str)
    }

    /// Number of interned functions.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Returns `true` if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over interned names in id order (`FnId` 0, 1, 2, ...),
    /// the order needed to serialize and rebuild a registry.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.names.iter().map(String::as_str)
    }
}

/// A registry handle shareable between trace sessions of the same
/// program (single-threaded; tracing is inherently sequential).
pub type SharedRegistry = Rc<RefCell<FunctionRegistry>>;

/// Creates a fresh shared registry.
pub fn shared_registry() -> SharedRegistry {
    Rc::new(RefCell::new(FunctionRegistry::new()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut r = FunctionRegistry::new();
        let a = r.intern("malloc");
        let b = r.intern("xmalloc");
        assert_ne!(a, b);
        assert_eq!(r.intern("malloc"), a);
        assert_eq!(r.len(), 2);
        assert_eq!(r.name(a), Some("malloc"));
        assert_eq!(r.get("xmalloc"), Some(b));
        assert_eq!(r.get("missing"), None);
    }

    #[test]
    fn encryption_keys_spread() {
        let mut r = FunctionRegistry::new();
        let keys: Vec<u16> = (0..100)
            .map(|i| r.intern(&format!("f{i}")).encryption_key())
            .collect();
        let mut uniq = keys.clone();
        uniq.sort_unstable();
        uniq.dedup();
        // 100 keys into 65536 slots should essentially never collide.
        assert!(
            uniq.len() >= 99,
            "too many collisions: {}",
            100 - uniq.len()
        );
    }

    #[test]
    fn empty_registry() {
        let r = FunctionRegistry::new();
        assert!(r.is_empty());
        assert_eq!(r.name(FnId(0)), None);
    }
}
