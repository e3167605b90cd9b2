//! The global allocator of the heap-measuring test binaries.
//!
//! `mod counting;` installs it: every heap byte the binary allocates
//! passes through [`Counting`], which forwards to the system allocator
//! and keeps the bytes held right now and their maximum. A binary that
//! measures with it should hold one `#[test]`, so that no other test's
//! allocations land in its readings.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting the bytes it holds and their maximum.
pub struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

#[global_allocator]
static COUNTING: Counting = Counting;

impl Counting {
    fn grew(by: usize) {
        let now = LIVE.fetch_add(by, Ordering::Relaxed) + by;
        PEAK.fetch_max(now, Ordering::Relaxed);
    }

    /// Heap bytes held right now.
    pub fn live() -> usize {
        LIVE.load(Ordering::Relaxed)
    }

    /// The most heap bytes held at once since the last
    /// [`Counting::restart_peak`].
    pub fn peak() -> usize {
        PEAK.load(Ordering::Relaxed)
    }

    /// Starts a new peak at what is held right now, and returns that.
    pub fn restart_peak() -> usize {
        let live = Self::live();
        PEAK.store(live, Ordering::Relaxed);
        live
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counters only observe.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            // A moving realloc holds both blocks while it copies: count
            // the new one before the old one goes.
            Self::grew(new_size);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        q
    }
}
