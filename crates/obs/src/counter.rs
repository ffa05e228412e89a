//! Sharded counters and gauges for allocator fast paths.
//!
//! A [`Counter`] spreads its value over a fixed set of cache-line-
//! padded cells, indexed by a per-thread slot: concurrent increments
//! from different threads land on different lines, so the hot path is
//! one uncontended `fetch_add(Relaxed)` and never a shared-line
//! bounce. Reads aggregate all cells, which makes them *eventually
//! consistent* totals — exactly the jemalloc `stats`/epoch trade-off:
//! cheap writes, approximate point-in-time reads.
//!
//! The Relaxed orderings are deliberate: a statistics cell publishes
//! no state another thread acts on — readers only ever sum the cells
//! into a report.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Number of counter cells. A small power of two: enough to separate
/// the handful of threads an allocator shard set serves, cheap enough
/// to sum on every read.
pub(crate) const COUNTER_CELLS: usize = 16;

/// Monotonic thread numbering for cell assignment (same scheme as
/// galloc's home-shard assignment, but private to the metrics layer so
/// the two never couple).
static NEXT_CELL: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Each thread draws one slot for its lifetime. Const-initialized
    /// so the hot-path access is a plain TLS load with no init guard.
    static CELL_SLOT: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

/// This thread's cell index.
#[inline]
pub(crate) fn thread_cell() -> usize {
    CELL_SLOT.with(|s| {
        let v = s.get();
        if v != usize::MAX {
            v
        } else {
            // Relaxed: a cell index needs only be spread, not ordered.
            let v = NEXT_CELL.fetch_add(1, Ordering::Relaxed) % COUNTER_CELLS;
            s.set(v);
            v
        }
    })
}

/// One padded counter cell: its own cache line, so neighbouring cells
/// never bounce a line between cores under independent traffic.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Cell {
    count: AtomicU64,
}

/// A monotonically increasing counter, sharded across padded cells.
///
/// Increments are wait-free `Relaxed` adds on the calling thread's own
/// cell; [`Counter::get`] sums the cells (wrapping), so a read taken
/// while writers are active is a consistent-enough snapshot for
/// reporting, never a synchronization point.
///
/// # Examples
///
/// ```
/// use lifepred_obs::Counter;
///
/// let c = Counter::new();
/// c.add(1);
/// c.add(41);
/// assert_eq!(c.get(), 42);
/// ```
#[derive(Debug)]
pub struct Counter {
    cells: Box<[Cell]>,
}

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Counter {
        Counter {
            cells: (0..COUNTER_CELLS).map(|_| Cell::default()).collect(),
        }
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        let cell = &self.cells[thread_cell()];
        cell.count.fetch_add(n, Ordering::Relaxed);
    }

    /// The aggregated total: the wrapping sum of all cells. Reads taken
    /// while writers are active may miss in-flight increments; they
    /// never tear an individual cell.
    pub fn get(&self) -> u64 {
        self.cells.iter().fold(0u64, |acc, c| {
            acc.wrapping_add(c.count.load(Ordering::Relaxed))
        })
    }
}

impl Default for Counter {
    fn default() -> Self {
        Counter::new()
    }
}

/// A point-in-time value, replaced wholesale at export time.
///
/// `set` publishes with `Release` (it is an export-time operation, not
/// a fast-path one). Unlike [`Counter`] a gauge is a single cell: set
/// semantics cannot shard.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct Gauge {
    level: AtomicU64,
}

impl Gauge {
    /// Creates a zeroed gauge.
    pub(crate) fn new() -> Gauge {
        Gauge::default()
    }

    /// Replaces the value (export-time path).
    pub fn set(&self, v: u64) {
        self.level.store(v, Ordering::Release);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.level.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        assert_eq!(c.get(), 0);
        c.add(1);
        c.add(9);
        assert_eq!(c.get(), 10);
    }

    #[test]
    fn counter_sums_across_threads() {
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.add(1);
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
    }

    #[test]
    fn gauge_holds_the_last_set() {
        let g = Gauge::new();
        g.set(10);
        g.set(12);
        assert_eq!(g.get(), 12);
    }
}
