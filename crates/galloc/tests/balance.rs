//! Leak accounting needs a quiet process: it diffs the process-global
//! [`lifepred_galloc::stats`], so it lives in a test binary of its own
//! where no sibling test holds live blocks while it counts.

mod common;

use common::{assert_clean, ensure_active, Block};

/// Leak accounting on a quiescent slice of traffic: a full
/// alloc/free cycle of N blocks moves the alloc and free totals by
/// the same amount.
#[test]
fn storm_balances_allocs_and_frees() {
    ensure_active();
    // Drain this thread's counter batch so before/after deltas are
    // visible: cross the clock-flush threshold deliberately.
    let flush = || {
        for _ in 0..64 {
            Block::new(1024, 8).verify_and_free();
        }
    };
    flush();
    let before = lifepred_galloc::stats();
    // Rolling window of 256 live blocks so the live set stays well
    // inside the reserved area even with one shard (the area-pressure
    // fallback is exercised elsewhere; here every alloc must stay on
    // the class path for the balance check to be exact).
    let mut window: Vec<Block> = Vec::new();
    for i in 0..4_096 {
        window.push(Block::new(i % 2048 + 1, 8));
        if window.len() > 256 {
            window.remove(0).verify_and_free();
        }
    }
    for b in window.drain(..) {
        b.verify_and_free();
    }
    flush();
    let after = lifepred_galloc::stats();
    let allocated = after.small_allocs - before.small_allocs;
    let freed = after.small_frees() - before.small_frees();
    assert!(
        allocated >= 4_096,
        "expected ≥4096 small allocs, saw {allocated}"
    );
    // The test harness's own threads allocate too; the invariant that
    // survives them is that nothing we freed went missing: frees keep
    // pace with allocs to within the transit buffers (magazines are
    // bounded at 32 blocks x 16 classes per live thread).
    let in_transit = 32 * 16 * 16;
    assert!(
        freed + in_transit >= allocated,
        "freed {freed} lags allocated {allocated} beyond bounded caches"
    );
    assert_clean();
}
