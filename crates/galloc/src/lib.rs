//! **lifepred-galloc** — a deployable `#[global_allocator]` with
//! per-thread caches over size-classed segments.
//!
//! [`LifepredGlobal`] is a plain size-class allocator; Chapter 12 of
//! DESIGN.md describes the architecture:
//!
//! * **per-thread magazines** — bounded per-size-class free stacks
//!   refilled and flushed in batches from the owning shard, so the
//!   allocation hot path is thread-local and lock-free;
//! * **size-class fast paths** — sixteen classes up to 2 KiB with a
//!   constant-time class map, carved from 64 KiB segments;
//! * **shard central lists and remote-free stacks** — each shard owns
//!   a run of segments; blocks freed by a foreign thread go back to
//!   their owner over a lock-free stack;
//! * **system fallback with an ownership check** — large or
//!   over-aligned requests, pre-activation traffic, and area
//!   exhaustion go to [`std::alloc::System`]; `dealloc` routes by a
//!   single range check, so mixed pointers are always freed by the
//!   allocator that produced them.
//!
//! Lifetime prediction is not part of it: an A/B against a version
//! that steered predicted-short sites to resettable segments found
//! prediction cost time and peak RSS on every program (EXPERIMENTS.md,
//! "Does prediction pay inside galloc?"). The paper's method lives in
//! the simulator (`lifepred-heap`).
//!
//! # Deploying as the global allocator
//!
//! The allocator passes every request straight through to the system
//! allocator until [`activate`] is called, so installing it is free
//! for programs (or subcommands) that never opt in:
//!
//! ```
//! use lifepred_galloc::LifepredGlobal;
//!
//! #[global_allocator]
//! static GLOBAL: LifepredGlobal = LifepredGlobal::new();
//!
//! fn main() {
//!     lifepred_galloc::activate().expect("allocator geometry");
//!     let data: Vec<Box<u64>> = (0..4096).map(Box::new).collect();
//!     assert_eq!(data.len(), 4096);
//!     drop(data);
//!     // Counters are thread-batched; 4096 boxes cross the flush
//!     // threshold, so the totals are visible here.
//!     let stats = lifepred_galloc::stats();
//!     assert!(stats.small_allocs > 0);
//! }
//! ```

#![warn(missing_docs)]
// Library code only: in-file `#[cfg(test)]` modules are exempt.
#![cfg_attr(
    not(test),
    deny(
        clippy::indexing_slicing,
        clippy::panic,
        clippy::unwrap_used,
        clippy::expect_used
    )
)]

mod classes;
mod config;
mod counters;
mod inner;
mod tls;

pub use config::GallocConfig;
pub use counters::GallocStats;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicPtr, AtomicU8, Ordering};
use tls::SmallAlloc;

const STATE_INACTIVE: u8 = 0;
const STATE_BUILDING: u8 = 1;
const STATE_READY: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(STATE_INACTIVE);
static INNER: AtomicPtr<inner::Inner> = AtomicPtr::new(std::ptr::null_mut());

/// The activated allocator core, if any.
pub(crate) fn active_inner() -> Option<&'static inner::Inner> {
    if STATE.load(Ordering::Acquire) != STATE_READY {
        return None;
    }
    // SAFETY: STATE_READY is published (Release) only after INNER is
    // stored with a valid pointer from Box::into_raw, and the core is
    // never torn down once published.
    Some(unsafe { &*INNER.load(Ordering::Acquire) })
}

/// Builds the allocator core and switches [`LifepredGlobal`] from
/// system passthrough to the size-class path. Geometry comes from
/// `LIFEPRED_GALLOC` when set, hardware-sized defaults otherwise.
///
/// Returns `Ok(true)` when this call performed the activation and
/// `Ok(false)` when the allocator was already active.
///
/// # Errors
///
/// Returns a message when `LIFEPRED_GALLOC` is set but malformed, or
/// when the area reservation fails. A failed activation leaves the
/// allocator in passthrough mode.
pub fn activate() -> Result<bool, String> {
    activate_with(GallocConfig::from_env()?.unwrap_or_default())
}

/// [`activate`] with an explicit geometry (ignoring `LIFEPRED_GALLOC`).
///
/// # Errors
///
/// As [`activate`].
pub fn activate_with(config: GallocConfig) -> Result<bool, String> {
    match STATE.compare_exchange(
        STATE_INACTIVE,
        STATE_BUILDING,
        Ordering::AcqRel,
        Ordering::Acquire,
    ) {
        Ok(_) => match inner::Inner::build(config) {
            Ok(core) => {
                // The core's own construction allocated through the
                // passthrough path (STATE was BUILDING), so none of
                // its internals live inside the area it now serves.
                INNER.store(Box::into_raw(Box::new(core)), Ordering::Release);
                STATE.store(STATE_READY, Ordering::Release);
                Ok(true)
            }
            Err(e) => {
                STATE.store(STATE_INACTIVE, Ordering::Release);
                Err(e)
            }
        },
        Err(_) => {
            // Lost the race (or already active): wait out a concurrent
            // build so callers can rely on is_active() afterwards.
            while STATE.load(Ordering::Acquire) == STATE_BUILDING {
                std::hint::spin_loop();
            }
            Ok(false)
        }
    }
}

/// Whether [`activate`] has completed.
pub fn is_active() -> bool {
    STATE.load(Ordering::Acquire) == STATE_READY
}

/// Counters so far (all zero while inactive).
pub fn stats() -> GallocStats {
    active_inner()
        .map(|i| i.counters.snapshot())
        .unwrap_or_default()
}

/// The size-class global allocator.
///
/// Usable as `#[global_allocator]`; behaves as a zero-cost system
/// passthrough until [`activate`] is called. See the crate docs for
/// the deployment quickstart.
#[derive(Debug, Default, Clone, Copy)]
pub struct LifepredGlobal;

impl LifepredGlobal {
    /// A passthrough allocator (activate with [`activate`]).
    pub const fn new() -> LifepredGlobal {
        LifepredGlobal
    }
}

// SAFETY: alloc/dealloc follow the GlobalAlloc contract: every
// returned pointer is uniquely owned, sized and aligned for its
// layout (class_for guarantees the class size is a multiple of the
// requested alignment and blocks are carved at class-size multiples
// from 64 KiB-aligned segments); dealloc routes each pointer to the
// allocator that produced it via the reserved-area range check.
unsafe impl GlobalAlloc for LifepredGlobal {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let Some(inner) = active_inner() else {
            // SAFETY: caller upholds the GlobalAlloc contract.
            return unsafe { System.alloc(layout) };
        };
        match classes::class_for(layout.size(), layout.align()) {
            Some(class) => match tls::alloc_small(inner, class, layout.size()) {
                SmallAlloc::Served(p) => p,
                SmallAlloc::Exhausted => {
                    inner
                        .counters
                        .fallback_exhausted
                        .fetch_add(1, Ordering::Relaxed);
                    // SAFETY: caller upholds the GlobalAlloc contract.
                    unsafe { System.alloc(layout) }
                }
            },
            None => {
                let counter = if layout.align() > classes::SMALL_MAX {
                    &inner.counters.fallback_align
                } else {
                    &inner.counters.fallback_large
                };
                counter.fetch_add(1, Ordering::Relaxed);
                // SAFETY: caller upholds the GlobalAlloc contract.
                unsafe { System.alloc(layout) }
            }
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let Some(inner) = active_inner() else {
            // SAFETY: ptr came from this allocator with this layout;
            // before activation that means the system allocator.
            return unsafe { System.dealloc(ptr, layout) };
        };
        if !inner.contains(ptr) {
            inner.counters.system_frees.fetch_add(1, Ordering::Relaxed);
            // SAFETY: the range check proves this pointer came from
            // the system fallback (or pre-activation) path.
            return unsafe { System.dealloc(ptr, layout) };
        }
        inner.free(ptr);
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let class_served =
            active_inner().is_some() && classes::class_for(layout.size(), layout.align()).is_some();
        if class_served {
            // SAFETY: caller upholds the GlobalAlloc contract.
            let p = unsafe { self.alloc(layout) };
            if !p.is_null() {
                // SAFETY: p points to at least layout.size() writable
                // bytes returned by alloc above.
                unsafe { std::ptr::write_bytes(p, 0, layout.size()) };
            }
            p
        } else {
            if let Some(inner) = active_inner() {
                let counter = if layout.align() > classes::SMALL_MAX {
                    &inner.counters.fallback_align
                } else {
                    &inner.counters.fallback_large
                };
                counter.fetch_add(1, Ordering::Relaxed);
            }
            // SAFETY: caller upholds the GlobalAlloc contract.
            unsafe { System.alloc_zeroed(layout) }
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let Some(inner) = active_inner() else {
            // SAFETY: ptr came from this allocator (the system path)
            // with this layout; caller upholds the contract.
            return unsafe { System.realloc(ptr, layout, new_size) };
        };
        if inner.contains(ptr) {
            // In place when the new layout lands in the same class
            // (the block is already big and aligned enough).
            let meta = inner.seg_of(ptr);
            let class = meta.class.load(Ordering::Relaxed) as usize;
            if classes::class_for(new_size, layout.align()) == Some(class) {
                return ptr;
            }
        } else if classes::class_for(new_size, layout.align()).is_none() {
            // System block staying on the system path: let it resize
            // in place when possible.
            // SAFETY: the range check proves ptr came from the system
            // path; caller upholds the contract.
            return unsafe { System.realloc(ptr, layout, new_size) };
        }
        let Ok(new_layout) = Layout::from_size_align(new_size, layout.align()) else {
            return std::ptr::null_mut();
        };
        // SAFETY: caller upholds the GlobalAlloc contract.
        let new_ptr = unsafe { self.alloc(new_layout) };
        if !new_ptr.is_null() {
            // SAFETY: both blocks are live and distinct; the copy
            // length is bounded by both sizes.
            unsafe {
                std::ptr::copy_nonoverlapping(ptr, new_ptr, layout.size().min(new_size));
            }
            // SAFETY: ptr came from this allocator with this layout
            // and ownership moved to the new block.
            unsafe { self.dealloc(ptr, layout) };
        }
        new_ptr
    }
}
