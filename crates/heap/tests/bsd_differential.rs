//! Differential-equality proof: [`BsdMalloc`], handed each freed
//! chunk's size, is observably identical to the map-keyed heap it
//! replaced ([`MapBsdMalloc`]), which looked the bucket up by address.
//!
//! Both heaps are driven in lockstep — randomized scripts of
//! allocations, frees of live chunks and frees no chunk can match, plus
//! the event streams of every workload trace — asserting identical
//! addresses at every allocation and, at the end, identical
//! [`OpCounts`] (the Table 9 cost-model input) and heap sizes (the
//! Table 8 measure). Double frees are left out: only the map can see
//! them, and the replay's live table refuses them before any heap runs
//! (`replay::tests::replay_rejects_bad_sequences`).

#[path = "support/map_bsd.rs"]
mod map_bsd;

use lifepred_heap::{Addr, BsdMalloc};
use lifepred_trace::{shared_registry, ChunkEvent, Trace};
use lifepred_workloads::{all_workloads, record};
use map_bsd::MapBsdMalloc;
use proptest::prelude::*;

/// Drives both heaps through the same alloc/free sequence.
#[derive(Default)]
struct Lockstep {
    sized: BsdMalloc,
    mapped: MapBsdMalloc,
    ops: u64,
}

impl Lockstep {
    fn alloc(&mut self, size: u32) -> Addr {
        self.ops += 1;
        let a = self.sized.alloc(size);
        let b = self.mapped.alloc(size);
        assert_eq!(
            a, b,
            "placement diverged at op {} (size {size}): sized {a}, mapped {b}",
            self.ops
        );
        a
    }

    fn free(&mut self, addr: Addr, size: u32) {
        self.ops += 1;
        self.sized.free(addr, size);
        self.mapped.free(addr);
    }

    fn finish(self) {
        assert_eq!(
            self.sized.counts(),
            self.mapped.counts(),
            "OpCounts diverged after {} ops",
            self.ops
        );
        assert_eq!(self.sized.heap_bytes(), self.mapped.heap_bytes());
        assert_eq!(self.sized.heap_bytes(), self.mapped.max_heap_bytes());
        assert_eq!(self.sized.live_blocks(), self.mapped.live_blocks());
    }
}

/// Every workload trace (the paper's suite plus `server`) replays
/// identically.
#[test]
fn all_workload_traces_replay_identically() {
    for w in all_workloads() {
        let trace: Trace = record(w.as_ref(), 0, shared_registry());
        let mut step = Lockstep::default();
        let mut slots: Vec<Option<Addr>> = vec![None; trace.records().len()];
        for event in trace.events() {
            match event {
                ChunkEvent::Alloc { record, size } => slots[record] = Some(step.alloc(size)),
                ChunkEvent::Free { record } => {
                    let addr = slots[record].take().expect("freed before alloc");
                    step.free(addr, trace.records()[record].size);
                }
            }
        }
        step.finish();
    }
}

#[derive(Debug, Clone)]
enum Op {
    Alloc(u32),
    /// Free the live chunk at `index % live.len()`.
    Free(usize),
    /// Free an address no chunk starts at: `raw % 3` picks one below
    /// the header, one inside a live chunk, or one past every page
    /// carved so far.
    Wild(u64),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (1u32..20_000).prop_map(Op::Alloc),
            (0usize..1000).prop_map(Op::Free),
            any::<u64>().prop_map(Op::Wild),
        ],
        1..500,
    )
}

proptest! {
    /// Randomized scripts never diverge.
    #[test]
    fn random_scripts_replay_identically(script in ops()) {
        let mut step = Lockstep::default();
        let mut live: Vec<(Addr, u32)> = Vec::new();
        for op in script {
            match op {
                Op::Alloc(size) => live.push((step.alloc(size), size)),
                Op::Free(i) if !live.is_empty() => {
                    let (addr, size) = live.swap_remove(i % live.len());
                    step.free(addr, size);
                }
                Op::Free(_) => {}
                Op::Wild(raw) => {
                    let size = (raw >> 32) as u32 % 20_000 + 1;
                    match (raw % 3, live.len()) {
                        (0, _) => step.free(Addr(raw % 4), size),
                        (1, n) if n > 0 => {
                            // Off a chunk start by 1..=15 bytes.
                            let (addr, size) = live[(raw as usize / 3) % n];
                            step.free(Addr(addr.0 + (raw >> 8) % 15 + 1), size);
                        }
                        _ => step.free(Addr(step.mapped.heap_bytes() + 4 + (raw >> 40)), size),
                    }
                }
            }
        }
        for (addr, size) in live {
            step.free(addr, size);
        }
        step.finish();
    }
}
