//! The recording session: a calling-context tree + allocation recorder.
//!
//! The session keeps one tree per recording. A node stands for one
//! *raw* stack (recursion not collapsed; cycle elimination happens
//! later, in [`CallChain::without_cycles`]), and the session's current
//! node is the stack the program is in. [`TraceSession::enter`] moves to
//! a child: it finds the child by the name's address and length, so a
//! call that has been made from this node before hashes nothing. A
//! `&'static str` lives for the whole program, so its address is never
//! reused for another name. A name met under a new address (the same
//! text from another literal) is interned in the registry and joins the
//! child that has its [`FnId`] as one more key. A node interns its chain
//! in the [`ChainTable`] at its first allocation and keeps the
//! [`ChainId`], so later allocations there hash nothing either. Function
//! ids keep first-`enter` order and chain ids first-allocation order, so
//! a recorded trace does not depend on the tree.

use crate::chain::{CallChain, ChainId, ChainTable};
use crate::keys::{self, EventKeys, TraceEvents};
use crate::record::{AllocationRecord, ObjectId};
use crate::registry::{FnId, FunctionRegistry, SharedRegistry};
use crate::stats::TraceStats;
use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::rc::Rc;

/// Instruction cost charged per traced function call (call + return +
/// frame bookkeeping on a RISC target).
const CALL_INSTRUCTIONS: u64 = 3;

/// Fraction of `work` instructions that are non-heap memory references
/// (stack and globals), expressed as a divisor.
const WORK_REF_DIVISOR: u64 = 4;

/// The index of a calling-context tree node in [`Inner::nodes`].
type NodeId = u32;

/// The root: the empty stack, before any `enter`.
const ROOT: NodeId = 0;

/// One node of the calling-context tree: the raw stack from the root
/// down to here.
#[derive(Debug)]
struct Node {
    parent: NodeId,
    /// The innermost frame (unused at the root).
    func: FnId,
    /// Interned at the node's first allocation.
    chain: Option<ChainId>,
    /// Children keyed by the entered name's `(address, length)`; two
    /// keys lead to one child when the same name has two addresses.
    kids: Vec<((usize, usize), NodeId)>,
}

impl Node {
    fn new(parent: NodeId, func: FnId) -> Node {
        Node {
            parent,
            func,
            chain: None,
            kids: Vec::new(),
        }
    }
}

#[derive(Debug)]
struct Inner {
    name: String,
    nodes: Vec<Node>,
    cur: NodeId,
    chains: ChainTable,
    records: Vec<AllocationRecord>,
    /// The `.lpt` key of every event, in program order.
    events: Vec<u8>,
    clock: u64,
    live_bytes: u64,
    live_objects: u64,
    stats: TraceStats,
    finished: bool,
}

/// A single-threaded tracing session.
///
/// The session is a cheaply cloneable handle (the paper's programs are
/// sequential; so are our workloads). Workloads:
///
/// * bracket every function body with [`TraceSession::enter`], which
///   moves down the calling-context tree;
/// * allocate with [`TraceSession::alloc`] (or the RAII
///   [`TraceSession::traced`] wrapper) and free with
///   [`TraceSession::free`];
/// * report heap references with [`TraceSession::touch`] and
///   computational work with [`TraceSession::work`].
///
/// [`TraceSession::finish`] produces the immutable [`Trace`].
///
/// # Examples
///
/// ```
/// use lifepred_trace::TraceSession;
///
/// let s = TraceSession::new("example");
/// let _g = s.enter("main");
/// let id = s.alloc(64);
/// s.free(id);
/// let trace = s.finish();
/// assert_eq!(trace.stats().total_bytes, 64);
/// ```
#[derive(Clone)]
pub struct TraceSession {
    inner: Rc<RefCell<Inner>>,
    registry: SharedRegistry,
}

impl std::fmt::Debug for TraceSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("TraceSession")
            .field("name", &inner.name)
            .field("objects", &inner.records.len())
            .field("clock", &inner.clock)
            .finish()
    }
}

impl TraceSession {
    /// Starts a session with a private function registry.
    pub fn new(name: &str) -> Self {
        TraceSession::with_registry(name, Rc::new(RefCell::new(FunctionRegistry::new())))
    }

    /// Starts a session sharing `registry` with other runs of the same
    /// program, so allocation sites map across runs (true prediction).
    pub fn with_registry(name: &str, registry: SharedRegistry) -> Self {
        TraceSession {
            inner: Rc::new(RefCell::new(Inner {
                name: name.to_owned(),
                nodes: vec![Node::new(ROOT, FnId(u32::MAX))],
                cur: ROOT,
                chains: ChainTable::new(),
                records: Vec::new(),
                events: Vec::new(),
                clock: 0,
                live_bytes: 0,
                live_objects: 0,
                stats: TraceStats::default(),
                finished: false,
            })),
            registry,
        }
    }

    /// Calls `function` from the current stack, returning a guard that
    /// returns from it when dropped.
    ///
    /// The name is looked up among the current node's children by
    /// address; it is interned in the registry only the first time this
    /// address is entered from this node.
    pub fn enter(&self, function: &'static str) -> CallGuard {
        let key = (function.as_ptr() as usize, function.len());
        let mut guard = self.inner.borrow_mut();
        let inner = &mut *guard;
        let cur = inner.cur;
        let kids = &inner.nodes[cur as usize].kids;
        let node = match kids.iter().find(|&&(k, _)| k == key) {
            Some(&(_, kid)) => kid,
            None => {
                let func = self.registry.borrow_mut().intern(function);
                let kid = inner.child(cur, func);
                inner.nodes[cur as usize].kids.push((key, kid));
                kid
            }
        };
        inner.cur = node;
        inner.stats.function_calls += 1;
        inner.stats.instructions += CALL_INSTRUCTIONS;
        CallGuard {
            session: self.inner.clone(),
            node,
        }
    }

    /// Records an allocation of `size` bytes at the current call-chain.
    ///
    /// Advances the byte clock by `size`, so an object freed with no
    /// intervening allocations has lifetime `size`.
    ///
    /// # Panics
    ///
    /// Panics if the session is already finished.
    pub fn alloc(&self, size: u32) -> ObjectId {
        let mut inner = self.inner.borrow_mut();
        assert!(!inner.finished, "alloc on a finished session");
        let chain = match inner.nodes[inner.cur as usize].chain {
            Some(id) => id,
            None => inner.intern_chain(),
        };
        let object = ObjectId(inner.records.len() as u64);
        let record = AllocationRecord {
            size,
            chain,
            birth_clock: inner.clock,
            death_clock: None,
            refs: 0,
            first_ref_clock: None,
            last_ref_clock: None,
        };
        inner.records.push(record);
        keys::encode_alloc(&mut inner.events, size);
        inner.clock += u64::from(size);
        inner.live_bytes += u64::from(size);
        inner.live_objects += 1;
        inner.stats.total_bytes += u64::from(size);
        inner.stats.total_objects += 1;
        if inner.live_bytes > inner.stats.max_live_bytes {
            inner.stats.max_live_bytes = inner.live_bytes;
        }
        if inner.live_objects > inner.stats.max_live_objects {
            inner.stats.max_live_objects = inner.live_objects;
        }
        object
    }

    /// Records the deallocation of `object`.
    ///
    /// Frees after [`TraceSession::finish`] are ignored so that RAII
    /// wrappers may outlive the session.
    ///
    /// # Panics
    ///
    /// Panics on double free.
    pub fn free(&self, object: ObjectId) {
        let mut inner = self.inner.borrow_mut();
        if inner.finished {
            return;
        }
        let (clock, allocs) = (inner.clock, inner.records.len() as u64);
        let record = &mut inner.records[object.0 as usize];
        assert!(record.death_clock.is_none(), "double free of {object}");
        record.death_clock = Some(clock);
        let size = u64::from(record.size);
        keys::encode_free(&mut inner.events, allocs, object.0).expect("a live object");
        inner.live_bytes -= size;
        inner.live_objects -= 1;
    }

    /// Records `n` heap references to `object` (counted as `n`
    /// instructions as well), stamping the object's first/last
    /// reference clocks with the current byte clock for liveness and
    /// drag analysis.
    pub fn touch(&self, object: ObjectId, n: u64) {
        let mut inner = self.inner.borrow_mut();
        if inner.finished {
            return;
        }
        let clock = inner.clock;
        let record = &mut inner.records[object.0 as usize];
        record.refs += n;
        if n > 0 {
            record.first_ref_clock.get_or_insert(clock);
            record.last_ref_clock = Some(clock);
        }
        inner.stats.heap_refs += n;
        inner.stats.instructions += n;
    }

    /// Records `n` virtual instructions of non-allocating work; a
    /// quarter of them are charged as non-heap memory references.
    pub fn work(&self, n: u64) {
        let mut inner = self.inner.borrow_mut();
        inner.stats.instructions += n;
        inner.stats.other_refs += n / WORK_REF_DIVISOR;
    }

    /// Wraps `value` in a [`Traced`] smart pointer that frees its
    /// record when dropped. `size` is the number of heap bytes the
    /// corresponding C allocation would have requested.
    pub fn traced<T>(&self, value: T, size: u32) -> Traced<T> {
        Traced {
            id: self.alloc(size),
            session: self.clone(),
            value,
        }
    }

    /// Number of objects allocated so far.
    pub fn objects(&self) -> u64 {
        self.inner.borrow().records.len() as u64
    }

    /// Number of calling-context tree nodes so far, the root included:
    /// one per distinct raw stack entered. Unlike the chain count it
    /// grows with recursion depth, so it prices the tree's memory.
    pub fn context_nodes(&self) -> usize {
        self.inner.borrow().nodes.len()
    }

    /// Finishes the session, producing the immutable [`Trace`].
    ///
    /// Objects still live become *immortal* records whose lifetime runs
    /// to the end of the trace. Outstanding [`Traced`] values and
    /// clones of the session remain valid; their frees become no-ops.
    pub fn finish(&self) -> Trace {
        let mut inner = self.inner.borrow_mut();
        inner.finished = true;
        Trace {
            name: inner.name.clone(),
            registry: self.registry.borrow().clone(),
            chains: std::mem::take(&mut inner.chains),
            records: std::mem::take(&mut inner.records),
            events: std::mem::take(&mut inner.events),
            // An allocation per object and a free per dead one.
            event_count: 2 * inner.stats.total_objects - inner.live_objects,
            stats: inner.stats,
        }
    }
}

impl Inner {
    /// The child of `parent` for `func`, created if there is none.
    fn child(&mut self, parent: NodeId, func: FnId) -> NodeId {
        let kids = &self.nodes[parent as usize].kids;
        if let Some(&(_, kid)) = kids
            .iter()
            .find(|&&(_, kid)| self.nodes[kid as usize].func == func)
        {
            return kid;
        }
        let kid = NodeId::try_from(self.nodes.len()).expect("more than u32::MAX call contexts");
        self.nodes.push(Node::new(parent, func));
        kid
    }

    /// Interns the current node's raw stack, outermost first, and
    /// caches its id on the node.
    #[cold]
    fn intern_chain(&mut self) -> ChainId {
        let mut frames = Vec::new();
        let mut node = self.cur;
        while node != ROOT {
            let n = &self.nodes[node as usize];
            frames.push(n.func);
            node = n.parent;
        }
        frames.reverse();
        let id = self.chains.intern(&frames);
        self.nodes[self.cur as usize].chain = Some(id);
        id
    }
}

/// RAII guard returned by [`TraceSession::enter`]; returns to the
/// caller's node on drop.
///
/// # Panics
///
/// Dropping a guard other than the innermost live one panics, in every
/// build: it would otherwise record later allocations at a wrong chain.
/// While the thread is already unwinding the check is skipped, since a
/// second panic would abort the process.
#[derive(Debug)]
pub struct CallGuard {
    session: Rc<RefCell<Inner>>,
    node: NodeId,
}

impl Drop for CallGuard {
    fn drop(&mut self) {
        let mut inner = self.session.borrow_mut();
        assert!(
            inner.cur == self.node || std::thread::panicking(),
            "call guard dropped out of order: it entered context {}, the current one is {}",
            self.node,
            inner.cur
        );
        inner.cur = inner.nodes[self.node as usize].parent;
    }
}

/// A traced smart pointer: owns `T` and frees its allocation record on
/// drop.
///
/// Follows the smart-pointer convention: all operations are associated
/// functions so they never shadow methods of `T`.
///
/// # Examples
///
/// ```
/// use lifepred_trace::{TraceSession, Traced};
///
/// let s = TraceSession::new("demo");
/// {
///     let v: Traced<Vec<u8>> = s.traced(vec![0u8; 32], 32);
///     Traced::touch(&v, 4);
///     assert_eq!(v.len(), 32); // Deref to the payload
/// } // dropped here => free event recorded
/// let trace = s.finish();
/// assert_eq!(trace.records()[0].refs, 4);
/// ```
pub struct Traced<T> {
    value: T,
    id: ObjectId,
    session: TraceSession,
}

impl<T> Traced<T> {
    /// The traced object's id.
    pub fn id(this: &Traced<T>) -> ObjectId {
        this.id
    }

    /// Records `n` heap references to the object.
    pub fn touch(this: &Traced<T>, n: u64) {
        this.session.touch(this.id, n);
    }
}

impl<T> Deref for Traced<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for Traced<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T> Drop for Traced<T> {
    fn drop(&mut self) {
        self.session.free(self.id);
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Traced<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Traced")
            .field("id", &self.id)
            .field("value", &self.value)
            .finish()
    }
}

/// A finished, immutable allocation trace.
#[derive(Debug, Clone)]
pub struct Trace {
    name: String,
    registry: FunctionRegistry,
    chains: ChainTable,
    records: Vec<AllocationRecord>,
    /// The `.lpt` key of every event, in program order.
    events: Vec<u8>,
    event_count: u64,
    stats: TraceStats,
}

impl Trace {
    /// Reassembles a trace from its parts, e.g. when loading one from
    /// disk. `events` is the program-order event stream as the
    /// payload of an `.lpt` events section: `event_count` keys in the
    /// one encoding of [`keys`].
    ///
    /// Callers must uphold the session invariants: records are in
    /// birth order and each born at the sum of the earlier ones'
    /// sizes; the keys decode, allocate the records in that order at
    /// their sizes, and free each mortal record once, after its birth,
    /// at its death clock; every chain id resolves in `chains`, and
    /// every frame id resolves in `registry`. Deserializers validate
    /// these before calling.
    pub fn from_parts(
        name: String,
        registry: FunctionRegistry,
        chains: ChainTable,
        records: Vec<AllocationRecord>,
        events: Vec<u8>,
        event_count: u64,
        stats: TraceStats,
    ) -> Trace {
        Trace {
            name,
            registry,
            chains,
            records,
            events,
            event_count,
            stats,
        }
    }

    /// The traced program's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Snapshot of the function registry at finish time.
    pub fn registry(&self) -> &FunctionRegistry {
        &self.registry
    }

    /// The interned call-chains referenced by the records.
    pub fn chains(&self) -> &ChainTable {
        &self.chains
    }

    /// Resolves a record's chain id.
    pub fn chain(&self, id: ChainId) -> &CallChain {
        self.chains.get(id)
    }

    /// All allocation records, in birth order.
    pub fn records(&self) -> &[AllocationRecord] {
        &self.records
    }

    /// Aggregate statistics (the paper's Table 2 row).
    pub fn stats(&self) -> &TraceStats {
        &self.stats
    }

    /// Byte clock at end of trace: `stats().total_bytes`.
    pub fn end_clock(&self) -> u64 {
        self.stats.total_bytes
    }

    /// Events in the trace: allocations plus frees.
    pub fn end_seq(&self) -> u64 {
        self.event_count
    }

    /// The events' keys in program order, byte for byte the payload of
    /// the trace's `.lpt` events section.
    pub fn event_keys(&self) -> &[u8] {
        &self.events
    }

    /// The events in program order, decoded from
    /// [`event_keys`](Self::event_keys).
    pub fn events(&self) -> TraceEvents<'_> {
        TraceEvents(EventKeys::new(&self.events, self.event_count))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_birth_and_death_clocks() {
        let s = TraceSession::new("t");
        let a = s.alloc(10);
        let b = s.alloc(20);
        s.free(a); // clock is 30 now
        s.free(b);
        let t = s.finish();
        let (ra, rb) = (&t.records()[0], &t.records()[1]);
        assert_eq!(ra.birth_clock, 0);
        assert_eq!(ra.death_clock, Some(30));
        assert_eq!(ra.lifetime(t.end_clock()), 30);
        assert_eq!(rb.birth_clock, 10);
        assert_eq!(rb.lifetime(t.end_clock()), 20);
    }

    #[test]
    fn call_stack_shapes_chains() {
        let s = TraceSession::new("t");
        let obj;
        {
            let _a = s.enter("outer");
            let _b = s.enter("inner");
            obj = s.alloc(8);
        }
        let t = s.finish();
        let chain = t.chain(t.records()[0].chain);
        let names: Vec<_> = chain
            .frames()
            .iter()
            .map(|&f| t.registry().name(f).expect("interned"))
            .collect();
        assert_eq!(names, ["outer", "inner"]);
        let _ = obj;
    }

    #[test]
    #[should_panic(expected = "call guard dropped out of order")]
    fn misordered_guard_drop_panics() {
        let s = TraceSession::new("t");
        let outer = s.enter("outer");
        let _inner = s.enter("inner");
        drop(outer);
    }

    #[test]
    fn max_live_tracking() {
        let s = TraceSession::new("t");
        let a = s.alloc(100);
        let b = s.alloc(50);
        s.free(a);
        let _c = s.alloc(10);
        s.free(b);
        let t = s.finish();
        assert_eq!(t.stats().max_live_bytes, 150);
        assert_eq!(t.stats().max_live_objects, 2);
        assert_eq!(t.stats().total_bytes, 160);
        assert_eq!(t.stats().total_objects, 3);
    }

    #[test]
    fn immortal_objects_survive_finish() {
        let s = TraceSession::new("t");
        let _leaked = s.alloc(64);
        s.alloc(36); // also leaked
        let t = s.finish();
        assert!(t.records().iter().all(AllocationRecord::is_immortal));
        assert_eq!(t.records()[0].lifetime(t.end_clock()), 100);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let s = TraceSession::new("t");
        let a = s.alloc(8);
        s.free(a);
        s.free(a);
    }

    #[test]
    fn traced_wrapper_frees_on_drop() {
        let s = TraceSession::new("t");
        {
            let w = s.traced(String::from("hello"), 6);
            Traced::touch(&w, 2);
            assert_eq!(&**w, "hello");
        }
        let t = s.finish();
        assert_eq!(t.event_keys(), [12, 1]);
        assert_eq!(t.records()[0].refs, 2);
    }

    #[test]
    fn frees_after_finish_are_ignored() {
        let s = TraceSession::new("t");
        let w = s.traced(7u32, 4);
        let t = s.finish();
        drop(w); // must not panic
        assert!(t.records()[0].is_immortal());
    }

    #[test]
    fn shared_registry_maps_sites_across_runs() {
        let reg = Rc::new(RefCell::new(FunctionRegistry::new()));
        let s1 = TraceSession::with_registry("run1", reg.clone());
        {
            let _g = s1.enter("worker");
            s1.alloc(8);
        }
        let t1 = s1.finish();
        let s2 = TraceSession::with_registry("run2", reg);
        {
            let _g = s2.enter("worker");
            s2.alloc(8);
        }
        let t2 = s2.finish();
        let c1 = t1.chain(t1.records()[0].chain);
        let c2 = t2.chain(t2.records()[0].chain);
        assert_eq!(c1.frames(), c2.frames());
    }

    #[test]
    fn touch_stamps_first_and_last_ref_clocks() {
        let s = TraceSession::new("t");
        let a = s.alloc(10); // clock now 10
        s.touch(a, 1); // first touch at clock 10
        s.alloc(90); // clock now 100
        s.touch(a, 3); // last touch at clock 100
        s.touch(a, 0); // zero refs must not move the clocks
        s.free(a);
        let t = s.finish();
        let r = &t.records()[0];
        assert_eq!(r.refs, 4);
        assert_eq!(r.first_ref_clock, Some(10));
        assert_eq!(r.last_ref_clock, Some(100));
        // Untouched object keeps None on both.
        let rb = &t.records()[1];
        assert_eq!(rb.first_ref_clock, None);
        assert_eq!(rb.last_ref_clock, None);
    }

    #[test]
    fn stats_count_calls_and_refs() {
        let s = TraceSession::new("t");
        {
            let _g = s.enter("f");
            let a = s.alloc(8);
            s.touch(a, 10);
            s.work(40);
        }
        let t = s.finish();
        assert_eq!(t.stats().function_calls, 1);
        assert_eq!(t.stats().heap_refs, 10);
        assert_eq!(t.stats().other_refs, 10);
        assert_eq!(t.stats().heap_ref_pct(), 50.0);
    }
}
