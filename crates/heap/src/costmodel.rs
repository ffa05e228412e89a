//! The Table 9 instruction-count cost model.
//!
//! The paper measured BSD and first-fit with the QP profiling tool and
//! *modeled* the arena variants by multiplying operation counts by
//! per-operation instruction estimates on a RISC (SPARC) target. We do
//! the same: the estimates below use the paper's published constants
//! where given (18 instructions to attempt a prediction, 10 of which
//! walk the length-4 chain; 3 instructions per call for call-chain
//! encryption) and defensible RISC estimates for the allocator paths.

use crate::replay::ReplayReport;

/// BSD fast path: bucket index + list pop + header write.
const BSD_POP: f64 = 50.0;
/// Extra cost of carving a page into chunks (amortized per carve).
const BSD_CARVE: f64 = 120.0;
/// BSD free: header read + list push.
const BSD_FREE: f64 = 17.0;

/// First-fit fixed allocation overhead (entry, size rounding, tag
/// writes).
const FF_ALLOC_BASE: f64 = 35.0;
/// Cost per free block examined during the search.
const FF_SEARCH_STEP: f64 = 4.0;
/// Cost of splitting a block.
const FF_SPLIT: f64 = 10.0;
/// Cost of an sbrk page extension.
const FF_GROW: f64 = 30.0;
/// First-fit free fixed overhead (tag reads/writes, list relink).
const FF_FREE_BASE: f64 = 45.0;
/// Cost per coalesce performed.
const FF_COALESCE: f64 = 12.0;

/// Arena bump allocation: space check, pointer and count increments.
const ARENA_BUMP: f64 = 11.0;
/// Resetting an exhausted arena.
const ARENA_RESET: f64 = 20.0;
/// Examining one arena while scanning for an empty one.
const ARENA_SCAN_STEP: f64 = 3.0;
/// Arena free: address-range classification + count decrement.
const ARENA_FREE: f64 = 8.0;
/// Address-range check paid by frees routed to the general heap.
const ADDR_CHECK: f64 = 3.0;

/// Paper: "the determination of whether an allocation is short-lived
/// takes approximately 18 instructions, including the 10 to determine
/// the length-4 call-chain".
const PREDICT_LEN4: f64 = 18.0;
/// Hash-table lookup component of prediction (18 − 10).
const PREDICT_LOOKUP: f64 = 8.0;
/// Paper: call-chain encryption costs ~3 instructions per function
/// call, charged per allocation as `3 × calls / allocs`.
const CCE_PER_CALL: f64 = 3.0;

/// Which site-identification strategy the arena allocator pays for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictorKind {
    /// Walk the last four frame pointers at each allocation.
    Len4,
    /// Maintain an XOR key at every function call (Carter's scheme).
    Cce,
}

/// Modeled per-operation instruction costs for one allocator run —
/// one cell group of Table 9.
#[derive(Debug, Clone, PartialEq)]
pub struct CostReport {
    /// Allocator (and predictor) label.
    pub allocator: String,
    /// Average instructions per allocation.
    pub alloc_instr: f64,
    /// Average instructions per free.
    pub free_instr: f64,
}

impl CostReport {
    /// Instructions per alloc+free pair (the paper's "a+f" column).
    pub fn total(&self) -> f64 {
        self.alloc_instr + self.free_instr
    }
}

fn per(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

/// Costs of a [`ReplayPlan::Bsd`](crate::ReplayPlan::Bsd) replay.
pub fn bsd_costs(r: &ReplayReport) -> CostReport {
    CostReport {
        allocator: "bsd".to_owned(),
        alloc_instr: BSD_POP + per(BSD_CARVE * r.counts.page_carves as f64, r.counts.allocs),
        free_instr: BSD_FREE,
    }
}

/// Costs of a [`ReplayPlan::FirstFit`](crate::ReplayPlan::FirstFit) replay.
pub fn firstfit_costs(r: &ReplayReport) -> CostReport {
    let c = &r.counts;
    let variable = FF_SEARCH_STEP * c.search_steps as f64
        + FF_SPLIT * c.splits as f64
        + FF_GROW * c.page_grows as f64;
    CostReport {
        allocator: "first-fit".to_owned(),
        alloc_instr: FF_ALLOC_BASE + per(variable, c.allocs),
        free_instr: FF_FREE_BASE + per(FF_COALESCE * c.coalesces as f64, c.frees),
    }
}

/// Costs of a [`ReplayPlan::Arena`](crate::ReplayPlan::Arena) replay
/// under the given predictor strategy.
///
/// Every allocation pays the prediction attempt; arena allocations then
/// take the bump path while the rest take the embedded first-fit path.
/// Frees route by an address check into either a count decrement or a
/// first-fit free.
pub fn arena_costs(r: &ReplayReport, kind: PredictorKind) -> CostReport {
    let c = &r.counts;
    // The merged counters mix arena and general-heap operations; the
    // search/split/grow/coalesce counters only ever come from the
    // embedded first-fit heap.
    let general_allocs = c.allocs - c.arena_allocs;
    let general_frees = c.frees - c.arena_frees;

    let predict_per_alloc = match kind {
        PredictorKind::Len4 => PREDICT_LEN4,
        PredictorKind::Cce => {
            PREDICT_LOOKUP + per(CCE_PER_CALL * r.function_calls as f64, c.allocs)
        }
    };

    let alloc_total = predict_per_alloc * c.allocs as f64
        + ARENA_BUMP * c.arena_allocs as f64
        + ARENA_RESET * c.arena_resets as f64
        + ARENA_SCAN_STEP * c.arena_scan_steps as f64
        + FF_ALLOC_BASE * general_allocs as f64
        + FF_SEARCH_STEP * c.search_steps as f64
        + FF_SPLIT * c.splits as f64
        + FF_GROW * c.page_grows as f64;

    let free_total = ARENA_FREE * c.arena_frees as f64
        + (ADDR_CHECK + FF_FREE_BASE) * general_frees as f64
        + FF_COALESCE * c.coalesces as f64;

    CostReport {
        allocator: match kind {
            PredictorKind::Len4 => "arena (len-4)".to_owned(),
            PredictorKind::Cce => "arena (cce)".to_owned(),
        },
        alloc_instr: per(alloc_total, c.allocs),
        free_instr: per(free_total, c.frees),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counts::OpCounts;

    fn report(counts: OpCounts, arena_allocs: u64, function_calls: u64) -> ReplayReport {
        ReplayReport {
            program: "t".into(),
            allocator: "arena".into(),
            total_allocs: counts.allocs,
            total_bytes: 0,
            arena_allocs,
            arena_bytes: 0,
            max_heap_bytes: 0,
            counts,
            function_calls,
        }
    }

    #[test]
    fn bsd_fast_path_near_constant() {
        let c = OpCounts {
            allocs: 1000,
            frees: 1000,
            bucket_pops: 990,
            page_carves: 10,
            ..OpCounts::default()
        };
        let cost = bsd_costs(&report(c, 0, 0));
        assert!((cost.alloc_instr - 51.2).abs() < 0.01);
        assert_eq!(cost.free_instr, 17.0);
        assert!((cost.total() - 68.2).abs() < 0.01);
    }

    #[test]
    fn firstfit_cost_rises_with_search_length() {
        let short = OpCounts {
            allocs: 100,
            frees: 100,
            search_steps: 100, // 1 step per alloc
            ..OpCounts::default()
        };
        let long = OpCounts {
            allocs: 100,
            frees: 100,
            search_steps: 3000, // 30 steps per alloc
            ..OpCounts::default()
        };
        let cheap = firstfit_costs(&report(short, 0, 0));
        let dear = firstfit_costs(&report(long, 0, 0));
        assert!(dear.alloc_instr > cheap.alloc_instr + 100.0);
    }

    #[test]
    fn successful_prediction_beats_firstfit() {
        // 98% arena hits, like GAWK in the paper.
        let c = OpCounts {
            allocs: 1000,
            frees: 1000,
            arena_allocs: 980,
            arena_frees: 980,
            arena_resets: 20,
            arena_scan_steps: 40,
            search_steps: 60,
            ..OpCounts::default()
        };
        let arena = arena_costs(&report(c, 980, 5000), PredictorKind::Len4);
        // ~18 + 11 = within a few instructions of the paper's 29.
        assert!(
            arena.alloc_instr > 25.0 && arena.alloc_instr < 35.0,
            "alloc {}",
            arena.alloc_instr
        );
        assert!(arena.free_instr < 15.0, "free {}", arena.free_instr);
    }

    #[test]
    fn cce_cost_scales_with_call_to_alloc_ratio() {
        let c = OpCounts {
            allocs: 1000,
            frees: 1000,
            arena_allocs: 1000,
            arena_frees: 1000,
            ..OpCounts::default()
        };
        let few_calls = arena_costs(&report(c, 1000, 1000), PredictorKind::Cce);
        let many_calls = arena_costs(&report(c, 1000, 30_000), PredictorKind::Cce);
        assert!(many_calls.alloc_instr > few_calls.alloc_instr + 50.0);
    }

    #[test]
    fn zero_division_guarded() {
        let cost = arena_costs(&report(OpCounts::default(), 0, 0), PredictorKind::Len4);
        assert_eq!(cost.alloc_instr, 0.0);
        assert_eq!(cost.free_instr, 0.0);
    }
}
