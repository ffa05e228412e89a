//! Loom tests for the galloc cross-thread protocols. With the vendored
//! loom stub they are many-schedule stress runs with yield perturbation
//! at every atomic op, not an exhaustive exploration:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p lifepred-galloc --features loom-test --test loom
//! ```
//!
//! Two protocols from `crates/galloc/src/inner.rs` are replicated here
//! over loom atomics (the production code works on real memory blocks
//! whose first words are the intrusive links; the models use an index
//! array, which is the same data structure without the `unsafe`):
//!
//! 1. the **remote-free Treiber stack** — threads freeing blocks owned
//!    by a foreign shard push them with a CAS loop; the owner drains
//!    with a single `swap(0)`;
//! 2. the **short-segment reclaim claim** — racing freers decrement
//!    the live count with a CAS loop, and whoever moves it to zero on
//!    a full segment races the CAS `SHORT_FULL -> SHORT_RECLAIM`;
//!    exactly one claimant may win.
//!
//! With the vendored loom stub these are many-schedule stress runs
//! with yield perturbation at every atomic op; pointing the
//! workspace's `loom` dependency at the real crate makes them
//! exhaustive.
#![cfg(all(loom, feature = "loom-test"))]

use loom::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use loom::sync::Arc;
use loom::thread;

/// `Inner::remote_push` over block indices: block `i`'s intrusive
/// next-link is `links[i]`, `NONE` marks end of list. Index 0 is a
/// valid block, so links store `index + 1` (0 = end), exactly like the
/// null-terminated pointer chain in production.
struct RemoteStack {
    head: AtomicUsize,
    links: Vec<AtomicUsize>,
}

impl RemoteStack {
    fn new(blocks: usize) -> RemoteStack {
        RemoteStack {
            head: AtomicUsize::new(0),
            links: (0..blocks).map(|_| AtomicUsize::new(0)).collect(),
        }
    }

    /// The push CAS loop from `Inner::remote_push`.
    fn push(&self, block: usize) {
        let mut head = self.head.load(Ordering::Acquire);
        loop {
            self.links[block].store(head, Ordering::Relaxed);
            match self
                .head
                .compare_exchange(head, block + 1, Ordering::Release, Ordering::Acquire)
            {
                Ok(_) => return,
                Err(actual) => head = actual,
            }
        }
    }

    /// The owner's drain from `Inner::refill`: one swap detaches the
    /// whole chain (ABA-free because only the owner ever removes).
    fn drain(&self, out: &mut Vec<usize>) {
        let mut head = self.head.swap(0, Ordering::AcqRel);
        while head != 0 {
            let block = head - 1;
            out.push(block);
            head = self.links[block].load(Ordering::Relaxed);
        }
    }
}

/// Every block pushed by any thread is drained exactly once — none
/// lost to a lost-update on the head, none duplicated.
#[test]
fn remote_free_hand_off_loses_nothing() {
    const PER_THREAD: usize = 3;
    loom::model(|| {
        let stack = Arc::new(RemoteStack::new(2 * PER_THREAD));
        let pushers: Vec<_> = (0..2)
            .map(|t| {
                let stack = Arc::clone(&stack);
                thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        stack.push(t * PER_THREAD + i);
                    }
                })
            })
            .collect();
        // The owner drains concurrently with the pushes, then once
        // more after both finish (a refill would).
        let owner = {
            let stack = Arc::clone(&stack);
            thread::spawn(move || {
                let mut got = Vec::new();
                stack.drain(&mut got);
                got
            })
        };
        let mut seen = owner.join().expect("owner");
        for p in pushers {
            p.join().expect("pusher");
        }
        stack.drain(&mut seen);
        seen.sort_unstable();
        let expect: Vec<usize> = (0..2 * PER_THREAD).collect();
        assert_eq!(seen, expect, "blocks lost or duplicated in hand-off");
    });
}

const SEG_SHORT_FULL: u32 = 3;
const SEG_SHORT_RECLAIM: u32 = 4;

/// `Inner::short_free`'s CAS-loop decrement: returns true when this
/// call moved the live count to zero.
fn dec_live(live: &AtomicU32) -> bool {
    let mut cur = live.load(Ordering::Acquire);
    loop {
        if cur == 0 {
            // Production counts this as an underflow and bails; the
            // model never double-frees, so this must be unreachable.
            panic!("live count underflow");
        }
        match live.compare_exchange(cur, cur - 1, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => return cur == 1,
            Err(actual) => cur = actual,
        }
    }
}

/// `Inner::try_reclaim`'s claim: only the FULL -> RECLAIM CAS winner
/// may reset the segment.
fn try_reclaim(state: &AtomicU32, resets: &AtomicUsize) {
    if state
        .compare_exchange(
            SEG_SHORT_FULL,
            SEG_SHORT_RECLAIM,
            Ordering::AcqRel,
            Ordering::Acquire,
        )
        .is_ok()
    {
        resets.fetch_add(1, Ordering::Relaxed);
    }
}

/// Racing last-freers (and a retiring owner calling the same claim
/// path via `short_unused`) elect exactly one segment resetter, and
/// the live count never underflows.
#[test]
fn short_segment_reclaim_elects_one_resetter() {
    loom::model(|| {
        let live = Arc::new(AtomicU32::new(3));
        let state = Arc::new(AtomicU32::new(SEG_SHORT_FULL));
        let resets = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let live = Arc::clone(&live);
                let state = Arc::clone(&state);
                let resets = Arc::clone(&resets);
                thread::spawn(move || {
                    if dec_live(&live) {
                        try_reclaim(&state, &resets);
                    } else {
                        // A non-final freer may still observe FULL and
                        // race the claim, exactly as a retiring owner
                        // does; the CAS must keep it single-winner.
                        try_reclaim(&state, &resets);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("freer");
        }
        assert_eq!(live.load(Ordering::Relaxed), 0);
        assert_eq!(
            resets.load(Ordering::Relaxed),
            1,
            "exactly one thread may reset the segment"
        );
        assert_eq!(state.load(Ordering::Relaxed), SEG_SHORT_RECLAIM);
    });
}
