//! Differential-equality proof: the indexed [`FirstFit`] is observably
//! identical to the seed's linear scan ([`LinearFirstFit`]).
//!
//! Both heaps are driven in lockstep — randomized operation scripts
//! (including invalid frees) plus the event streams of every
//! workload trace — asserting, operation by operation, identical
//! placements, and at the end identical [`OpCounts`] (`search_steps`
//! included, the Table 9 cost-model input) and `max_heap_bytes` (the
//! Table 8 measure). Any divergence in the index's answer, in the
//! order-statistic `search_steps` reconstruction, or in the
//! invalid-free handling fails here.

#[path = "support/linear.rs"]
mod linear;

use lifepred_heap::{Addr, FirstFit};
use lifepred_trace::{shared_registry, ChunkEvent, Trace};
use lifepred_workloads::{all_workloads, record};
use linear::LinearFirstFit;
use proptest::prelude::*;

/// Drives both implementations through the same alloc/free sequence,
/// checking placements at every step and the aggregate observables at
/// the end.
struct Lockstep {
    indexed: FirstFit,
    linear: LinearFirstFit,
    ops: u64,
}

impl Lockstep {
    fn new() -> Lockstep {
        Lockstep {
            indexed: FirstFit::new(),
            linear: LinearFirstFit::new(),
            ops: 0,
        }
    }

    fn alloc(&mut self, size: u32) -> Addr {
        self.ops += 1;
        let a = self.indexed.alloc(size);
        let b = self.linear.alloc(size);
        assert_eq!(
            a, b,
            "placement diverged at op {} (size {size}): indexed {a}, linear {b}",
            self.ops
        );
        a
    }

    fn free(&mut self, addr: Addr) {
        self.ops += 1;
        self.indexed.free(addr);
        self.linear.free(addr);
    }

    fn finish(self) {
        assert_eq!(
            self.indexed.counts(),
            self.linear.counts(),
            "OpCounts diverged after {} ops",
            self.ops
        );
        assert_eq!(
            self.indexed.max_heap_bytes(),
            self.linear.max_heap_bytes(),
            "max_heap_bytes diverged after {} ops",
            self.ops
        );
        assert_eq!(self.indexed.heap_bytes(), self.linear.heap_bytes());
        assert_eq!(self.indexed.live_blocks(), self.linear.live_blocks());
        assert_eq!(self.indexed.live_bytes(), self.linear.live_bytes());
        self.indexed.check_invariants();
    }
}

/// Replays `trace`'s event stream through both heaps in lockstep.
fn diff_replay(trace: &Trace) {
    let mut step = Lockstep::new();
    let mut slots: Vec<Option<Addr>> = vec![None; trace.records().len()];
    for event in trace.events() {
        match event {
            ChunkEvent::Alloc { record, size } => slots[record] = Some(step.alloc(size)),
            ChunkEvent::Free { record } => {
                let addr = slots[record].take().expect("freed before alloc");
                step.free(addr);
            }
        }
    }
    step.finish();
}

/// Every workload trace (the paper's suite plus `server`) replays
/// identically — the acceptance gate of the indexed search. Training
/// inputs keep this affordable; the randomized scripts below cover the
/// shapes the workloads do not reach.
#[test]
fn all_workload_traces_replay_identically() {
    let workloads = all_workloads();
    assert!(workloads.len() >= 6, "the suite lost a program");
    for w in workloads {
        let registry = shared_registry();
        let trace = record(w.as_ref(), 0, registry);
        assert!(
            trace.records().len() > 1000,
            "{}: trace too small to exercise the index",
            w.name()
        );
        diff_replay(&trace);
    }
}

/// A deterministic churn/fragmentation stress: interleaved short- and
/// long-lived objects with size variety forces wrapping searches,
/// splits, coalesces and heap growth.
#[test]
fn fragmentation_stress_replays_identically() {
    let mut step = Lockstep::new();
    let mut live: Vec<Addr> = Vec::new();
    let mut keepers: Vec<Addr> = Vec::new();
    let mut x = 0x9e3779b97f4a7c15u64;
    for i in 0..20_000u32 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let r = (x >> 33) as u32;
        match r % 7 {
            0..=2 => live.push(step.alloc(r % 900 + 1)),
            3 => keepers.push(step.alloc(r % 6000 + 1)),
            4..=5 if !live.is_empty() => {
                let idx = (r as usize) % live.len();
                step.free(live.swap_remove(idx));
            }
            6 if i % 11 == 0 && !keepers.is_empty() => {
                let idx = (r as usize) % keepers.len();
                step.free(keepers.swap_remove(idx));
            }
            _ => live.push(step.alloc(r % 64 + 1)),
        }
    }
    for a in live.into_iter().chain(keepers) {
        step.free(a);
    }
    step.finish();
}

/// A placement that takes a whole block with 8 bytes of slack leaves
/// the rover at `addr + need`, *inside* the block, not at the next
/// block's start — so when the next block is freed and the two
/// coalesce, the `rover == next` fix-up does not fire and the
/// following search starts above the merged hole and has to wrap.
#[test]
fn rover_stays_inside_an_unsplit_block_with_slack() {
    let mut step = Lockstep::new();
    // 256 blocks of 32 bytes fill the first page exactly; the last one
    // is placed at the heap top, which wraps the rover to the base.
    let blocks: Vec<Addr> = (0..256).map(|_| step.alloc(24)).collect();
    assert_eq!(step.indexed.heap_bytes(), 8192);
    step.free(blocks[0]);
    // Needs 24 of the 32-byte hole at the base: no split, rover = 24.
    let snug = step.alloc(16);
    assert_eq!(snug, blocks[0]);
    step.free(blocks[10]); // a 32-byte hole above the rover
    step.free(blocks[1]); // the next block: nothing to coalesce with yet
    step.free(snug); // absorbs [32, 64); the rover is 24, not 32: no fix-up
    let before = step.indexed.counts().search_steps;
    // Needs 48: the scan from 24 sees only the small hole, wraps, and
    // takes the merged [0, 64) — two blocks examined, where a rover
    // parked on the next block's start would have been pulled back to
    // the base by the coalesce and examined one.
    assert_eq!(step.alloc(40), blocks[0]);
    assert_eq!(step.indexed.counts().search_steps - before, 2);
    step.finish();
}

#[test]
fn linear_reference_basic_roundtrip() {
    let mut h = LinearFirstFit::new();
    let a = h.alloc(100);
    let b = h.alloc(50);
    h.free(a);
    h.free(b);
    assert_eq!(h.live_blocks(), 0);
    assert_eq!(h.heap_bytes(), 8192, "one page");
}

#[test]
fn linear_reference_counts_invalid_frees() {
    let mut h = LinearFirstFit::new();
    let a = h.alloc(8);
    h.free(a);
    h.free(a);
    assert_eq!(h.counts().frees, 1);
    assert_eq!(h.counts().frees_invalid, 1);
}

#[derive(Debug, Clone)]
enum Op {
    Alloc(u32),
    /// Free the live object at `index % live.len()`.
    Free(usize),
    /// Free an address that was never (or is no longer) allocated.
    InvalidFree(u64),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (1u32..3000).prop_map(Op::Alloc),
            (0usize..1000).prop_map(Op::Free),
            (0u64..1 << 20).prop_map(Op::InvalidFree),
        ],
        1..500,
    )
}

proptest! {
    /// Randomized scripts — allocations, frees of random live objects,
    /// and invalid frees — never diverge.
    #[test]
    fn random_scripts_replay_identically(script in ops()) {
        let mut step = Lockstep::new();
        let mut live: Vec<Addr> = Vec::new();
        let mut freed: Vec<Addr> = Vec::new();
        for op in script {
            match op {
                Op::Alloc(size) => live.push(step.alloc(size)),
                Op::Free(i) if !live.is_empty() => {
                    let addr = live.swap_remove(i % live.len());
                    step.free(addr);
                    freed.push(addr);
                }
                Op::Free(_) => {}
                Op::InvalidFree(raw) => {
                    // Either a wild address or a double free of a
                    // previously released object; both must be counted
                    // no-ops on both sides.
                    if raw % 2 == 0 && !freed.is_empty() {
                        let addr = freed[(raw as usize / 2) % freed.len()];
                        step.free(addr);
                    } else {
                        step.free(Addr(raw));
                    }
                }
            }
        }
        for addr in live {
            step.free(addr);
        }
        step.finish();
    }
}
