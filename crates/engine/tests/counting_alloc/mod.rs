//! The per-thread counting allocator the engine's allocation audits share
//! (`zero_alloc_wait.rs`, `bind_alloc.rs`): each declares `mod
//! counting_alloc;` and so installs it as its binary's global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    /// Allocations made by *this* thread. The tests of one binary run on
    /// parallel threads, and each audit is about its own: a process-wide
    /// count let a neighbour test's allocation (a spawn, the harness
    /// printing a result) land inside another's counted region and fail it.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Whether this thread also counts into `ENROLLED` ([`enrol`]).
    static IS_ENROLLED: Cell<bool> = const { Cell::new(false) };
}

/// Allocations made by every enrolled thread together: an audit of work
/// that may run on either of two threads counts both, and still none of a
/// neighbour test's.
static ENROLLED: AtomicU64 = AtomicU64::new(0);

fn count_one() {
    ALLOCS.with(|n| n.set(n.get() + 1));
    if IS_ENROLLED.with(Cell::get) {
        ENROLLED.fetch_add(1, Ordering::Relaxed);
    }
}

struct Counting;

// SAFETY: delegates verbatim to the system allocator; the counter is the
// only addition.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(l) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        unsafe { System.dealloc(p, l) }
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(p, l, n) }
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

/// Runs `f`, returning how many allocations (reallocations included) the
/// calling thread made meanwhile, and `f`'s result.
pub fn counted<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (ALLOCS.with(Cell::get) - before, r)
}

/// Makes the calling thread's allocations count into [`enrolled_allocs`]
/// from now on (a handler calls this, to enrol whichever thread runs it).
// Each audit binary compiles this module; `bind_alloc.rs` enrols nobody.
#[allow(dead_code)]
pub fn enrol() {
    IS_ENROLLED.with(|e| e.set(true));
}

/// Allocations every enrolled thread has made so far, together.
#[allow(dead_code)]
pub fn enrolled_allocs() -> u64 {
    ENROLLED.load(Ordering::Relaxed)
}
