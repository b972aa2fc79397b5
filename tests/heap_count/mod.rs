//! A counting global allocator for the heap-bound test binaries.
//!
//! A binary includes it with `mod heap_count;`. Every heap byte the
//! process allocates then passes through these counters, whichever
//! thread allocates it. The test harness runs a binary's tests on
//! parallel threads, so each binary that includes this module holds
//! exactly one `#[test]`: a second one would land in the first one's
//! counts.

#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Heap bytes live now, the most live since the last
/// [`reset_peak`], and allocation calls so far.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

impl Counting {
    fn grew(by: usize) {
        ALLOCATIONS.fetch_add(1, Relaxed);
        let live = LIVE.fetch_add(by, Relaxed) + by;
        PEAK.fetch_max(live, Relaxed);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            Counting::grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                Counting::grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Heap bytes live now.
pub fn live() -> usize {
    LIVE.load(Relaxed)
}

/// Restarts the peak at the bytes live now, and returns them.
pub fn reset_peak() -> usize {
    let live = live();
    PEAK.store(live, Relaxed);
    live
}

/// The most heap bytes live at once since the last [`reset_peak`].
pub fn peak() -> usize {
    PEAK.load(Relaxed)
}

/// Allocation calls so far, growing reallocations included.
pub fn allocations() -> usize {
    ALLOCATIONS.load(Relaxed)
}
