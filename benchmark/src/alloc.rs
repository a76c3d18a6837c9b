//! A counting allocator gated per thread, after the process-global one
//! in `crates/plane/tests/zero_alloc.rs`: only allocations made by the
//! measuring thread inside [`count_allocs`] are counted, so server
//! threads and the rest of the benchmark cannot perturb a count.
//!
//! The allocator is installed by the traced binary alone
//! (`#[global_allocator]` in `src/bin/traced.rs`); the untraced binary
//! measures end-to-end numbers on the system allocator, untouched.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

/// Forwards to the system allocator, counting while the calling
/// thread's gate is open.
pub struct CountingAlloc;

static INSTALLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    // Const-initialised `Cell`s of `Copy` data: no lazy initialisation
    // and no destructor, so touching them from inside the allocator can
    // neither allocate nor run during thread teardown.
    static GATE_OPEN: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    // Load first: every thread allocates, and a store per allocation
    // would bounce this cache line between cores.
    if !INSTALLED.load(Ordering::Relaxed) {
        INSTALLED.store(true, Ordering::Relaxed);
    }
    let _ = GATE_OPEN.try_with(|open| {
        if open.get() {
            let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping around the
// call touches only const-initialised thread-local `Cell`s and one
// atomic, and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc may move: counted, so a loop that grows a buffer
        // cannot hide behind in-place extension.
        note();
        // SAFETY: `ptr`/`layout` describe a live `System` block.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Whether [`CountingAlloc`] is this process's global allocator (it has
/// seen at least one allocation — true long before `main` runs).
pub fn installed() -> bool {
    INSTALLED.load(Ordering::Relaxed)
}

/// Runs `f` with this thread's gate open and returns its result with
/// the number of allocations it made on this thread. The count is 0
/// when the allocator is not installed; check [`installed`].
pub fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    let was_open = GATE_OPEN.with(|g| g.replace(true));
    let result = f();
    GATE_OPEN.with(|g| g.set(was_open));
    (result, ALLOCS.with(Cell::get) - before)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;

    #[test]
    fn counts_only_gated_allocations_of_the_calling_thread() {
        assert!(installed());
        let (v, n) = count_allocs(|| Vec::<u64>::with_capacity(32));
        assert_eq!(n, 1);
        drop(v);

        // Outside the gate nothing is counted; inside it, what another
        // thread allocates is not this thread's: a scope whose thread
        // allocates counts the same as one whose thread does not.
        let outside = vec![1u8; 64];
        let spawn_counting =
            |work: fn()| count_allocs(|| std::thread::scope(|s| s.spawn(work).join().unwrap())).1;
        spawn_counting(|| ()); // first spawn sets up thread machinery
        let idle = spawn_counting(|| ());
        let busy = spawn_counting(|| drop(std::hint::black_box(vec![0u8; 128])));
        assert_eq!(busy, idle);
        drop(outside);

        let (_, n) = count_allocs(|| {
            let mut v = Vec::with_capacity(1);
            v.extend([1u64, 2]); // grows: the realloc counts
            v
        });
        assert_eq!(n, 2);
        let (_, n) = count_allocs(|| std::hint::black_box(3 + 4));
        assert_eq!(n, 0);
    }
}
