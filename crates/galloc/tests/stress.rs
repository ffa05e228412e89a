//! Multi-threaded stress and fuzz harness for [`LifepredGlobal`]
//! installed as the process-wide global allocator.
//!
//! Every test keeps a per-test pointer ledger (each block is written
//! with a canary derived from its address and verified before free)
//! so corruption — a block handed out twice, a premature segment
//! reset, a flush to the wrong shard list — surfaces as a canary
//! mismatch, not silent memory reuse. Allocator-level invariants
//! (`short_free_underflows`, `wild_frees`) are asserted to stay zero
//! throughout; both counters are monotonic and process-wide, so the
//! asserts are sound even with tests running concurrently.

mod common;

use common::{assert_clean, ensure_active, Block};
use std::alloc::{alloc, dealloc, realloc, Layout};
use std::sync::mpsc;
use std::thread;

/// Deterministic xorshift so storms are reproducible.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Allocation storm: many threads, random sizes spanning every class
/// plus the large-fallback range, random free order, full canary
/// verification.
#[test]
fn storm_random_sizes_many_threads() {
    ensure_active();
    let handles: Vec<_> = (0..8)
        .map(|t| {
            thread::spawn(move || {
                let mut rng = Rng(0x9e3779b97f4a7c15 ^ (t as u64 + 1));
                let mut live: Vec<Block> = Vec::new();
                for _ in 0..20_000 {
                    let r = rng.next();
                    if r & 1 == 0 || live.is_empty() {
                        // Sizes 1..=4096: classes, boundary sizes, and
                        // the system fallback beyond 2048.
                        let size = (r >> 8) as usize % 4096 + 1;
                        live.push(Block::new(size, 8));
                    } else {
                        let idx = (r >> 8) as usize % live.len();
                        live.swap_remove(idx).verify_and_free();
                    }
                }
                for b in live {
                    b.verify_and_free();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_clean();
}

/// Over-aligned storms: every alignment up to 4096 (beyond the class
/// range) must produce correctly aligned, canary-stable blocks.
#[test]
fn storm_over_aligned() {
    ensure_active();
    let mut rng = Rng(42);
    let mut live = Vec::new();
    for _ in 0..4_000 {
        let r = rng.next();
        let align = 1usize << (r % 13); // 1..=4096
        let size = ((r >> 16) as usize % 512 + 1).next_multiple_of(align.max(1));
        let b = Block::new(size, align);
        assert_eq!(b.ptr as usize % align, 0, "misaligned for {align}");
        live.push(b);
        if live.len() > 256 {
            let idx = (r >> 32) as usize % live.len();
            live.swap_remove(idx).verify_and_free();
        }
    }
    for b in live {
        b.verify_and_free();
    }
    assert_clean();
}

/// Cross-thread free: every block allocated on thread A is verified
/// and freed on thread B, driving the remote-free stacks.
#[test]
fn cross_thread_free() {
    ensure_active();
    let (tx, rx) = mpsc::channel::<Block>();
    let producer = thread::spawn(move || {
        let mut rng = Rng(7);
        for _ in 0..30_000 {
            let size = rng.next() as usize % 2048 + 1;
            tx.send(Block::new(size, 8)).unwrap();
        }
    });
    let consumer = thread::spawn(move || {
        for b in rx {
            b.verify_and_free();
        }
    });
    producer.join().unwrap();
    consumer.join().unwrap();
    assert_clean();
    let stats = lifepred_galloc::stats();
    assert!(
        stats.remote_frees + stats.central_frees + stats.remote_drained > 0 || stats.mag_frees > 0,
        "cross-thread traffic left no trace in the counters"
    );
}

/// Producer/consumer ring: blocks hop across four threads before
/// dying, so every shard sees foreign frees from several threads at
/// once.
#[test]
fn producer_consumer_ring() {
    ensure_active();
    const STAGES: usize = 4;
    let mut senders = Vec::new();
    let mut receivers = Vec::new();
    for _ in 0..STAGES {
        let (tx, rx) = mpsc::channel::<Block>();
        senders.push(tx);
        receivers.push(rx);
    }
    let first = senders[0].clone();
    let mut handles = Vec::new();
    for (stage, rx) in receivers.into_iter().enumerate() {
        let next = if stage + 1 < STAGES {
            Some(senders[stage + 1].clone())
        } else {
            None
        };
        handles.push(thread::spawn(move || {
            for b in rx {
                match &next {
                    Some(tx) => tx.send(b).unwrap(),
                    None => b.verify_and_free(),
                }
            }
        }));
    }
    drop(senders);
    let mut rng = Rng(1234);
    for _ in 0..10_000 {
        let size = rng.next() as usize % 1536 + 1;
        first.send(Block::new(size, 8)).unwrap();
    }
    drop(first);
    for h in handles {
        h.join().unwrap();
    }
    assert_clean();
}

/// Realloc ladders: grow a block from 1 byte through every class
/// boundary into the system-fallback range and back down, verifying
/// the prefix is preserved at every rung.
#[test]
fn realloc_ladders() {
    ensure_active();
    let sizes: Vec<usize> = vec![
        1, 8, 9, 16, 24, 33, 48, 64, 100, 128, 200, 256, 500, 768, 1024, 1536, 2048, 2049, 4096,
        16384, 4096, 2048, 777, 64, 8,
    ];
    for start in 0..4 {
        let mut layout = Layout::from_size_align(sizes[start], 8).unwrap();
        // SAFETY: non-zero size.
        let mut ptr = unsafe { alloc(layout) };
        assert!(!ptr.is_null());
        for i in 0..layout.size() {
            // SAFETY: in bounds of the live block.
            unsafe { ptr.add(i).write((i % 251) as u8) };
        }
        let mut verified = layout.size();
        for &size in &sizes[start + 1..] {
            // SAFETY: ptr is live with `layout`; realloc contract.
            let next = unsafe { realloc(ptr, layout, size) };
            assert!(!next.is_null());
            ptr = next;
            let keep = verified.min(size);
            for i in 0..keep {
                // SAFETY: in bounds of the resized block.
                let got = unsafe { ptr.add(i).read() };
                assert_eq!(got, (i % 251) as u8, "realloc lost byte {i} at size {size}");
            }
            layout = Layout::from_size_align(size, 8).unwrap();
            for i in 0..size {
                // SAFETY: in bounds of the resized block.
                unsafe { ptr.add(i).write((i % 251) as u8) };
            }
            verified = size;
        }
        // SAFETY: ptr is live with the final layout.
        unsafe { dealloc(ptr, layout) };
    }
    assert_clean();
}

/// Threads that die with full magazines and live short runs: their
/// TLS destructors must flush every cached block back without losing
/// or duplicating any (verified by the surviving blocks' canaries and
/// the zero-invariants).
#[test]
fn tls_teardown_returns_cached_blocks() {
    ensure_active();
    for round in 0..32 {
        let (tx, rx) = mpsc::channel::<Block>();
        let t = thread::spawn(move || {
            let mut rng = Rng(round + 99);
            // Allocate plenty, free half here (loading the magazines),
            // ship the other half out to outlive this thread.
            let mut keep = Vec::new();
            for _ in 0..2_000 {
                let size = rng.next() as usize % 1024 + 1;
                keep.push(Block::new(size, 8));
                if keep.len() > 64 {
                    let idx = rng.next() as usize % keep.len();
                    keep.swap_remove(idx).verify_and_free();
                }
            }
            for b in keep {
                tx.send(b).unwrap();
            }
            // Thread exits with warm magazines and partial short runs;
            // Drop for Tls must hand everything back.
        });
        let survivors: Vec<Block> = rx.into_iter().collect();
        t.join().unwrap();
        // Free after the allocating thread is gone: these hit the
        // remote path of shards whose caching thread no longer exists.
        for b in survivors {
            b.verify_and_free();
        }
    }
    assert_clean();
}

/// alloc_zeroed must actually zero through the class path and the
/// fallback path alike.
#[test]
fn alloc_zeroed_is_zero() {
    ensure_active();
    for &size in &[1usize, 16, 100, 2048, 2049, 8192] {
        let layout = Layout::from_size_align(size, 8).unwrap();
        // SAFETY: non-zero size.
        let ptr = unsafe { std::alloc::alloc_zeroed(layout) };
        assert!(!ptr.is_null());
        for i in 0..size {
            // SAFETY: in bounds of the live block.
            let byte = unsafe { ptr.add(i).read() };
            assert_eq!(byte, 0, "byte {i} of {size} not zero");
        }
        // SAFETY: freed exactly once with its layout.
        unsafe { dealloc(ptr, layout) };
    }
    assert_clean();
}
