//! The counting global allocator shared by the allocation-gate test
//! binaries (`zero_alloc`, `alloc_budget`).
//!
//! Including this module installs the allocator for the whole test
//! binary. The counters are process-global, so a binary with more than
//! one test must hold [`serial`] for the whole of each test — set-up
//! included, since any concurrently running code perturbs the counts.

#![allow(dead_code)] // each including binary uses its own subset

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Counts every allocation and deallocation routed through the global
/// allocator, and tracks live and peak heap bytes.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static DEALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are side effects only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        DEALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc may move; count it as both so a hot loop that grows
        // a buffer cannot hide behind in-place extension.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        DEALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        grow(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `(allocations, deallocations)` since process start.
pub fn counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::SeqCst),
        DEALLOCS.load(Ordering::SeqCst),
    )
}

/// Runs `f`; returns its result, the allocations it performed and the
/// peak of live heap bytes above the level it started from.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let allocs = ALLOCS.load(Ordering::SeqCst);
    let base = LIVE_BYTES.load(Ordering::SeqCst);
    PEAK_BYTES.store(base, Ordering::SeqCst);
    let out = f();
    (
        out,
        ALLOCS.load(Ordering::SeqCst) - allocs,
        PEAK_BYTES.load(Ordering::SeqCst) - base,
    )
}

/// Serializes the tests of one binary; take it on a test's first line.
pub fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    // A poisoned lock only means another measuring test failed.
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}
