//! Crossfile fixture: a deployable allocator whose `dealloc` reaches
//! two panicking helpers in another file (util.rs).

use std::alloc::{GlobalAlloc, Layout, System};

pub struct FixtureAlloc;

unsafe impl GlobalAlloc for FixtureAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _class = seg_class(ptr as usize);
        let _meta = checked_meta(ptr as usize);
        unsafe { System.dealloc(ptr, layout) }
    }
}
