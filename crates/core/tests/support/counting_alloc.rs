//! The counting global allocator of the tests that measure allocations:
//! `qc_prop.rs` (bytes per decode), and in `sim/tests/`, `codec_canonical.rs`
//! (bytes per decode), `copy_budget.rs` (bytes and large allocations per
//! committed transaction) and `payload_residency.rs` (peak live heap).
//!
//! Including this module (`#[path]`) installs the allocator for the whole
//! test binary. Every call is forwarded to the system allocator; on the
//! way it counts, per thread, the bytes allocated and the allocations of
//! at least [`LARGE`] bytes, and, process-wide, the bytes live on the heap
//! and their peak. This is the only place under `crates/*/tests` where
//! `unsafe` may appear (`scripts/check_unsafe`).

#![allow(dead_code)] // each test binary reads the counters it needs

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Allocations this large or larger count as large: a copy of a 4 KiB
/// transaction, or a buffer of many.
pub const LARGE: usize = 4096;

struct CountingAlloc;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
    static LARGE_ALLOCS: Cell<usize> = const { Cell::new(0) };
}

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters are const-initialized thread-locals and atomics, none of which
// allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let size = layout.size();
        let _ = ALLOCATED.try_with(|bytes| bytes.set(bytes.get() + size));
        if size >= LARGE {
            let _ = LARGE_ALLOCS.try_with(|count| count.set(count.get() + 1));
        }
        let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
        PEAK.fetch_max(live, Ordering::Relaxed);
        // SAFETY: the caller's layout contract is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes this thread has allocated so far.
pub fn allocated() -> usize {
    ALLOCATED.with(Cell::get)
}

/// Allocations of at least [`LARGE`] bytes this thread has made so far.
pub fn large_allocs() -> usize {
    LARGE_ALLOCS.with(Cell::get)
}

/// The most bytes live on the heap at once, process-wide, so far.
pub fn peak_live() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Bytes allocated on this thread while `f` runs.
pub fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = allocated();
    let out = f();
    (out, allocated() - before)
}
