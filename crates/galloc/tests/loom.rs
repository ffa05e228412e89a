//! Loom test for galloc's one cross-thread protocol. With the vendored
//! loom stub it is a many-schedule stress run with yield perturbation
//! at every atomic op, not an exhaustive exploration:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p lifepred-galloc --features loom-test --test loom
//! ```
//!
//! The **remote-free Treiber stack** from `crates/galloc/src/inner.rs`
//! is replicated here over loom atomics: threads freeing blocks owned
//! by a foreign shard push them with a CAS loop; the owner drains with
//! a single `swap(0)`. (The production code works on real memory
//! blocks whose first words are the intrusive links; the model uses an
//! index array, which is the same data structure without the
//! `unsafe`.)
//!
//! Pointing the workspace's `loom` dependency at the real crate makes
//! the run exhaustive.
#![cfg(all(loom, feature = "loom-test"))]

use loom::sync::atomic::{AtomicUsize, Ordering};
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
