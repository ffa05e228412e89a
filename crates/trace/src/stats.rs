//! Aggregate execution statistics (the paper's Table 2).

/// Summary statistics for one traced execution.
///
/// These are the columns of the paper's Table 2: totals, high-water
/// marks, virtual instruction counts and the fraction of memory
/// references that touch the heap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Total bytes allocated over the run.
    pub total_bytes: u64,
    /// Total objects allocated over the run.
    pub total_objects: u64,
    /// Maximum bytes simultaneously live.
    pub max_live_bytes: u64,
    /// Maximum objects simultaneously live.
    pub max_live_objects: u64,
    /// Virtual instructions executed (workload-reported work units).
    pub instructions: u64,
    /// Function calls observed ([`TraceSession::enter`](crate::TraceSession::enter)s).
    pub function_calls: u64,
    /// Memory references made to heap objects.
    pub heap_refs: u64,
    /// Memory references made elsewhere (stack, globals, code).
    pub other_refs: u64,
}

impl TraceStats {
    /// Fraction of all memory references that touched the heap, in
    /// percent (Table 2's "Heap Refs" column). Zero if no references
    /// were recorded.
    pub fn heap_ref_pct(&self) -> f64 {
        let total = self.heap_refs + self.other_refs;
        if total == 0 {
            0.0
        } else {
            100.0 * self.heap_refs as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_ref_pct_basic() {
        let s = TraceStats {
            heap_refs: 80,
            other_refs: 20,
            ..TraceStats::default()
        };
        assert!((s.heap_ref_pct() - 80.0).abs() < 1e-9);
    }

    #[test]
    fn heap_ref_pct_empty() {
        assert_eq!(TraceStats::default().heap_ref_pct(), 0.0);
    }
}
