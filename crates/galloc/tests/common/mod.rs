//! What the allocator test binaries share: [`LifepredGlobal`] installed
//! as the process-wide global allocator, and blocks that carry a
//! canary so corruption surfaces as a mismatch, not silent reuse.

use lifepred_galloc::LifepredGlobal;
use std::alloc::{alloc, dealloc, Layout};

#[global_allocator]
static GLOBAL: LifepredGlobal = LifepredGlobal::new();

pub fn ensure_active() {
    lifepred_galloc::activate().expect("default geometry");
}

/// A raw block plus the canary discipline: filled on alloc, checked
/// on free.
pub struct Block {
    pub ptr: *mut u8,
    layout: Layout,
}

// SAFETY: a Block is an exclusively-owned allocation; moving it
// between threads is exactly the cross-thread traffic under test.
unsafe impl Send for Block {}

impl Block {
    pub fn new(size: usize, align: usize) -> Block {
        let layout = Layout::from_size_align(size, align).unwrap();
        // SAFETY: layout has non-zero size by construction below.
        let ptr = unsafe { alloc(layout) };
        assert!(!ptr.is_null(), "allocation failed for {layout:?}");
        let canary = Self::canary(ptr);
        for i in 0..size {
            // SAFETY: ptr points to `size` writable bytes.
            unsafe { ptr.add(i).write(canary.wrapping_add(i as u8)) };
        }
        Block { ptr, layout }
    }

    fn canary(ptr: *mut u8) -> u8 {
        let a = ptr as usize;
        (a ^ (a >> 8) ^ (a >> 16)) as u8 | 1
    }

    pub fn verify_and_free(self) {
        let canary = Self::canary(self.ptr);
        for i in 0..self.layout.size() {
            // SAFETY: the block is still live; ptr points to
            // layout.size() initialized bytes.
            let got = unsafe { self.ptr.add(i).read() };
            assert_eq!(
                got,
                canary.wrapping_add(i as u8),
                "canary mismatch at byte {i} of {:?} ({:?})",
                self.ptr,
                self.layout
            );
        }
        // SAFETY: ptr was returned by alloc with this layout and is
        // freed exactly once (self is consumed).
        unsafe { dealloc(self.ptr, self.layout) };
    }
}

pub fn assert_clean() {
    let stats = lifepred_galloc::stats();
    assert_eq!(stats.wild_frees, 0, "free into an uncarved segment");
}
