//! The global allocator of the heap-measuring test binaries.
//!
//! `mod counting;` installs it: every heap byte the binary allocates
//! passes through [`Counting`], which forwards to the system allocator.
//! It counts the bytes held and their maximum for one thread only: the
//! one that called [`Counting::count_this_thread`], through a
//! thread-local gate. The test harness's own threads (the main thread
//! that collects results and reports slow tests) allocate while a test
//! runs; without the gate their bytes would land in the test's readings
//! whenever they happened to overlap a measured step.
//!
//! The count is signed: a block allocated before the gate opened (or on
//! another thread) and freed on the counted thread lowers it below what
//! it ever added. A reading is a difference of two counts on one thread,
//! so that does not move it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};

/// The system allocator, counting the bytes the counted thread holds and
/// their maximum.
pub struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    /// Whether this thread's allocations and frees are counted. Const
    /// initialised and without a destructor, so reading it allocates
    /// nothing and works while the thread is torn down.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Whether the calling thread's allocations are counted.
fn counted() -> bool {
    COUNTED.try_with(Cell::get).unwrap_or(false)
}

impl Counting {
    fn grew(by: usize) {
        let by = isize::try_from(by).expect("an allocation fits in isize");
        let now = LIVE.fetch_add(by, Ordering::Relaxed) + by;
        PEAK.fetch_max(now, Ordering::Relaxed);
    }

    fn shrank(by: usize) {
        let by = isize::try_from(by).expect("an allocation fits in isize");
        LIVE.fetch_sub(by, Ordering::Relaxed);
    }

    /// Counts the calling thread's allocations and frees from now on,
    /// and no other thread's. Call it first thing in the test that
    /// measures.
    pub fn count_this_thread() {
        COUNTED.set(true);
    }

    /// Heap bytes the counted thread holds right now, relative to an
    /// arbitrary origin.
    fn live() -> isize {
        LIVE.load(Ordering::Relaxed)
    }

    /// The most heap bytes the counted thread held at once since the
    /// last [`Counting::restart_peak`].
    fn peak() -> isize {
        PEAK.load(Ordering::Relaxed)
    }

    /// Starts a new peak at what is held right now, and returns that.
    pub fn restart_peak() -> isize {
        let live = Self::live();
        PEAK.store(live, Ordering::Relaxed);
        live
    }

    /// The bytes the peak since [`Counting::restart_peak`] returned
    /// `base` lies above it.
    pub fn peak_above(base: isize) -> usize {
        usize::try_from(Self::peak() - base).expect("a peak is never below its base")
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counters only observe.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() && counted() {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() && counted() {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        if counted() {
            Self::shrank(layout.size());
        }
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() && counted() {
            // A moving realloc holds both blocks while it copies: count
            // the new one before the old one goes.
            Self::grew(new_size);
            Self::shrank(layout.size());
        }
        q
    }
}
