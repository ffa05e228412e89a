//! The allocation storm that drives `LifepredGlobal` through
//! [`GlobalAlloc`] — the deployable allocator with no simulator code.
//!
//! Shape follows `crates/bench/benches/galloc.rs`: each thread keeps a
//! rolling window of 128 live blocks, 7/8 of sizes fall in the small
//! classes (≤ 2 KiB) and 1/8 spill to the large path, and one byte of
//! every block is written. On top of that, 1/8 of a thread's frees of
//! small blocks are handed to its peer through a bounded mailbox, so the
//! remote-free path runs beside the magazine path. Large blocks are
//! always freed by their owner: they belong to `System`, and handing
//! them over measures glibc's arena locks (3x the CPU when the two
//! threads really run in parallel, none when the scheduler happens to
//! serialise them), not this allocator.

use std::alloc::{GlobalAlloc, Layout};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::time::Instant;

/// Live blocks each thread holds in its rolling window.
const WINDOW: usize = 128;
/// Blocks a mailbox holds before the sender frees locally instead.
const MAILBOX: usize = 256;
/// Operations between two looks into the mailbox.
const POLL_EVERY: usize = 64;
/// Rounds of fresh threads one storm is split into. Whether the
/// scheduler lets a pair of threads really run in parallel (contending)
/// or serialises it on one core changes a round's time by a third;
/// eight placements per storm average that out.
const ROUNDS: usize = 8;
/// Largest request the allocator's size classes serve.
const SMALL_MAX: usize = 2048;

/// A block in flight between threads: its address (a plain integer, so
/// the message is `Send`) and the layout it was allocated with.
type Block = (usize, Layout);

/// Calls made into the allocator by one storm.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StormCalls {
    pub allocs: u64,
    pub frees: u64,
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// The two ends of a thread's mailboxes: blocks for the peer to free,
/// and blocks the peer wants freed here.
struct Peer {
    to_peer: SyncSender<Block>,
    from_peer: Receiver<Block>,
}

fn free_block<A: GlobalAlloc>(a: &A, (addr, layout): Block, calls: &mut StormCalls) {
    // SAFETY: `addr` is the address of a block allocated from `a` with
    // `layout`; it left its owner's window exactly once, so it is live
    // and this is its only free.
    unsafe { a.dealloc(addr as *mut u8, layout) };
    calls.frees += 1;
}

fn storm_thread<A: GlobalAlloc>(a: &A, seed: u64, ops: usize, peer: Option<Peer>) -> StormCalls {
    let mut rng = Rng(seed | 1);
    let mut calls = StormCalls::default();
    let mut window: Vec<Block> = Vec::with_capacity(WINDOW);
    for op in 0..ops {
        if op % POLL_EVERY == 0 {
            if let Some(peer) = &peer {
                while let Ok(block) = peer.from_peer.try_recv() {
                    free_block(a, block, &mut calls);
                }
            }
        }
        let r = rng.next();
        if window.len() == WINDOW || (r & 3 == 0 && !window.is_empty()) {
            let block = window.swap_remove((r >> 32) as usize % window.len());
            let hand_off = (r >> 24) & 7 == 0 && block.1.size() <= SMALL_MAX;
            match &peer {
                Some(peer) if hand_off => match peer.to_peer.try_send(block) {
                    Ok(()) => {}
                    // A full mailbox never blocks the storm: free here.
                    Err(TrySendError::Full(block) | TrySendError::Disconnected(block)) => {
                        free_block(a, block, &mut calls);
                    }
                },
                _ => free_block(a, block, &mut calls),
            }
        } else {
            let size = if r & 7 == 7 {
                (r >> 8) as usize % 6144 + SMALL_MAX + 1
            } else {
                (r >> 8) as usize % SMALL_MAX + 1
            };
            let layout = Layout::from_size_align(size, 8).expect("size below isize::MAX");
            // SAFETY: `size` is at least 1.
            let ptr = unsafe { a.alloc(layout) };
            assert!(!ptr.is_null(), "allocator returned null for {size} bytes");
            // SAFETY: `ptr` is the first byte of a live block of `size` ≥ 1 bytes.
            unsafe { ptr.write(size as u8) };
            calls.allocs += 1;
            window.push((ptr as usize, layout));
        }
    }
    for block in window {
        free_block(a, block, &mut calls);
    }
    if let Some(Peer { to_peer, from_peer }) = peer {
        // Hanging up first lets the peer's own drain loop end; then free
        // whatever it still sends until it hangs up too.
        drop(to_peer);
        while let Ok(block) = from_peer.recv() {
            free_block(a, block, &mut calls);
        }
    }
    calls
}

/// Runs `ops` operations on each of `threads` (1 or 2) threads, split
/// into [`ROUNDS`] rounds of fresh threads, and returns the wall time in
/// seconds with the calls made. Two threads hand 1/8 of their small
/// frees to each other; one thread frees everything itself. The call
/// counts depend on `seed` alone, never on timing.
pub fn storm<A: GlobalAlloc + Sync>(
    a: &A,
    threads: usize,
    ops: usize,
    seed: u64,
) -> (f64, StormCalls) {
    let start = Instant::now();
    let mut calls = StormCalls::default();
    for round in 0..ROUNDS {
        let c = storm_round(a, threads, ops / ROUNDS, seed.wrapping_add(round as u64));
        calls.allocs += c.allocs;
        calls.frees += c.frees;
    }
    (start.elapsed().as_secs_f64(), calls)
}

fn storm_round<A: GlobalAlloc + Sync>(a: &A, threads: usize, ops: usize, seed: u64) -> StormCalls {
    let thread_seed = |t: u64| seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (0x9e37_79b9 * (t + 1));
    match threads {
        1 => storm_thread(a, thread_seed(0), ops, None),
        2 => {
            let (tx01, rx01) = sync_channel(MAILBOX);
            let (tx10, rx10) = sync_channel(MAILBOX);
            let peers = [
                Peer {
                    to_peer: tx01,
                    from_peer: rx10,
                },
                Peer {
                    to_peer: tx10,
                    from_peer: rx01,
                },
            ];
            std::thread::scope(|s| {
                let handles: Vec<_> = peers
                    .into_iter()
                    .enumerate()
                    .map(|(t, peer)| {
                        s.spawn(move || storm_thread(a, thread_seed(t as u64), ops, Some(peer)))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("storm thread panicked"))
                    .fold(StormCalls::default(), |sum, c| StormCalls {
                        allocs: sum.allocs + c.allocs,
                        frees: sum.frees + c.frees,
                    })
            })
        }
        n => panic!("the storm runs on 1 or 2 threads, not {n}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::alloc::System;

    #[test]
    fn every_block_is_freed_once_and_counts_repeat() {
        let (_, one) = storm(&System, 1, 40_000, 7);
        assert_eq!(one.allocs, one.frees);
        assert!(one.allocs > 10_000);
        let (_, two_a) = storm(&System, 2, 40_000, 7);
        let (_, two_b) = storm(&System, 2, 40_000, 7);
        assert_eq!(two_a.allocs, two_a.frees);
        // Which thread frees a block depends on timing; how many calls
        // are made does not.
        assert_eq!(two_a, two_b);
        let (_, other_seed) = storm(&System, 2, 40_000, 8);
        assert_ne!(two_a.allocs, other_seed.allocs);
    }
}
