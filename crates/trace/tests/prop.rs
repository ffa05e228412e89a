//! Property tests over random session scripts: the tracer's clocks,
//! stats and event streams must stay consistent for any program shape.

use lifepred_trace::{shared_registry, ChainTable, ChunkEvent, FnId, ObjectId, TraceSession};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::OnceLock;

/// The function names scripts enter, indexed by `Action::Enter`.
const NAMES: [&str; 8] = ["f0", "f1", "f2", "f3", "f4", "f5", "f6", "f7"];

/// The same texts as [`NAMES`] at other addresses, as a second literal
/// of one name would be.
fn twins() -> &'static [&'static str] {
    static TWINS: OnceLock<Vec<&'static str>> = OnceLock::new();
    TWINS.get_or_init(|| {
        (NAMES.iter())
            .map(|n| &*Box::leak(n.to_string().into_boxed_str()))
            .collect()
    })
}

#[derive(Debug, Clone)]
enum Action {
    Enter(u8),
    Leave,
    Alloc(u32),
    /// Free the live object at index % len.
    Free(usize),
    Touch(usize, u8),
}

fn actions() -> impl Strategy<Value = Vec<Action>> {
    proptest::collection::vec(
        prop_oneof![
            (0u8..8).prop_map(Action::Enter),
            Just(Action::Leave),
            (1u32..5000).prop_map(Action::Alloc),
            (0usize..512).prop_map(Action::Free),
            ((0usize..512), (1u8..20)).prop_map(|(i, n)| Action::Touch(i, n)),
        ],
        0..300,
    )
}

/// Interprets a script; guards are managed as a stack of scopes.
fn run(script: &[Action]) -> (lifepred_trace::Trace, usize) {
    let session = TraceSession::new("prop");
    let mut guards = Vec::new();
    let mut live: Vec<ObjectId> = Vec::new();
    let mut freed = 0usize;
    for a in script {
        match a {
            Action::Enter(n) => guards.push(session.enter(NAMES[usize::from(*n)])),
            Action::Leave => {
                guards.pop();
            }
            Action::Alloc(size) => live.push(session.alloc(*size)),
            Action::Free(i) => {
                if !live.is_empty() {
                    let id = live.swap_remove(i % live.len());
                    session.free(id);
                    freed += 1;
                }
            }
            Action::Touch(i, n) => {
                if !live.is_empty() {
                    session.touch(live[i % live.len()], u64::from(*n));
                }
            }
        }
    }
    // Unwind remaining scopes innermost-first (Vec's Drop would run
    // front-to-back, violating the stack discipline).
    while guards.pop().is_some() {}
    (session.finish(), freed)
}

/// A call, return or allocation; `Call`'s flag picks the name's twin.
#[derive(Debug, Clone)]
enum Step {
    Call(u8, bool),
    Return,
    Alloc,
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        prop_oneof![
            ((0u8..8), any::<bool>()).prop_map(|(n, twin)| Step::Call(n, twin)),
            Just(Step::Return),
            Just(Step::Alloc),
        ],
        0..400,
    )
}

proptest! {
    /// The calling-context tree against a raw stack of `FnId`s, with a
    /// `ChainTable` as the oracle: every record's chain is the raw
    /// stack at its birth, chain ids come in first-allocation order,
    /// function ids in first-call order, and there is one tree node per
    /// distinct stack.
    #[test]
    fn context_tree_records_the_raw_stack(script in steps()) {
        let registry = shared_registry();
        let session = TraceSession::with_registry("oracle", registry.clone());
        let mut guards = Vec::new();
        let mut stack: Vec<FnId> = Vec::new();
        let mut oracle = ChainTable::new();
        let mut births = Vec::new();
        let mut first_calls: Vec<&str> = Vec::new();
        let mut stacks: HashSet<Vec<FnId>> = HashSet::from([Vec::new()]);
        for step in &script {
            match *step {
                Step::Call(n, twin) => {
                    let name = if twin { twins()[usize::from(n)] } else { NAMES[usize::from(n)] };
                    guards.push(session.enter(name));
                    stack.push(registry.borrow().get(name).expect("entered names are interned"));
                    if !first_calls.contains(&name) {
                        first_calls.push(name);
                    }
                    stacks.insert(stack.clone());
                }
                Step::Return => {
                    if guards.pop().is_some() {
                        stack.pop();
                    }
                }
                Step::Alloc => {
                    births.push(oracle.intern(&stack));
                    session.alloc(8);
                }
            }
        }
        let nodes = session.context_nodes();
        // Return innermost first before any assertion can end the case.
        while guards.pop().is_some() {}
        prop_assert_eq!(nodes, stacks.len());
        let trace = session.finish();
        let chains: Vec<_> = trace.records().iter().map(|r| r.chain).collect();
        prop_assert_eq!(chains, births);
        prop_assert_eq!(trace.chains().len(), oracle.len());
        for (id, chain) in oracle.iter() {
            prop_assert_eq!(trace.chain(id), chain);
        }
        let names: Vec<&str> = trace.registry().names().collect();
        prop_assert_eq!(names, first_calls);
    }

    /// The byte clock equals the sum of all sizes; totals agree.
    #[test]
    fn clock_and_totals_consistent(script in actions()) {
        let (trace, _) = run(&script);
        let sum: u64 = trace.records().iter().map(|r| u64::from(r.size)).sum();
        prop_assert_eq!(trace.end_clock(), sum);
        prop_assert_eq!(trace.stats().total_bytes, sum);
        prop_assert_eq!(trace.stats().total_objects, trace.records().len() as u64);
    }

    /// Deaths never precede births, and lifetimes are consistent with
    /// the clock bounds.
    #[test]
    fn lifetimes_well_ordered(script in actions()) {
        let (trace, _) = run(&script);
        let end = trace.end_clock();
        for r in trace.records() {
            if let Some(d) = r.death_clock {
                prop_assert!(d >= r.birth_clock + u64::from(r.size),
                    "death before own allocation completed");
                prop_assert!(d <= end);
            }
            prop_assert!(r.lifetime(end) <= end);
            prop_assert!(r.lifetime(end) >= u64::from(r.size) || r.is_immortal());
        }
    }

    /// The event stream has one alloc per record, in birth order and at
    /// its birth clock, and one free per freed record, after its alloc
    /// and at its death clock.
    #[test]
    fn event_stream_well_formed(script in actions()) {
        let (trace, freed) = run(&script);
        let events: Vec<ChunkEvent> = trace.events().into_iter().collect();
        let frees = events.iter().filter(|e| matches!(e, ChunkEvent::Free { .. })).count();
        prop_assert_eq!(events.len() - frees, trace.records().len());
        prop_assert_eq!(frees, freed);
        let (mut born, mut clock, mut dead) = (0, 0u64, HashSet::new());
        for &e in &events {
            match e {
                ChunkEvent::Alloc { record, size } => {
                    prop_assert_eq!(record, born, "allocs out of birth order");
                    prop_assert_eq!(trace.records()[record].birth_clock, clock);
                    born += 1;
                    clock += u64::from(size);
                }
                ChunkEvent::Free { record } => {
                    prop_assert!(record < born, "free before alloc");
                    prop_assert!(dead.insert(record), "double free");
                    prop_assert_eq!(trace.records()[record].death_clock, Some(clock));
                }
            }
        }
    }

    /// Max-live statistics dominate every prefix of the trace.
    #[test]
    fn max_live_is_a_true_maximum(script in actions()) {
        let (trace, _) = run(&script);
        let mut live_bytes = 0u64;
        let mut live_objects = 0u64;
        let mut seen_max_bytes = 0u64;
        let mut seen_max_objects = 0u64;
        for e in trace.events() {
            match e {
                ChunkEvent::Alloc { size, .. } => {
                    live_bytes += u64::from(size);
                    live_objects += 1;
                }
                ChunkEvent::Free { record } => {
                    live_bytes -= u64::from(trace.records()[record].size);
                    live_objects -= 1;
                }
            }
            seen_max_bytes = seen_max_bytes.max(live_bytes);
            seen_max_objects = seen_max_objects.max(live_objects);
        }
        prop_assert_eq!(trace.stats().max_live_bytes, seen_max_bytes);
        prop_assert_eq!(trace.stats().max_live_objects, seen_max_objects);
    }

    /// Heap-reference totals equal the per-record sums.
    #[test]
    fn refs_accounted(script in actions()) {
        let (trace, _) = run(&script);
        let sum: u64 = trace.records().iter().map(|r| r.refs).sum();
        prop_assert_eq!(trace.stats().heap_refs, sum);
    }
}
