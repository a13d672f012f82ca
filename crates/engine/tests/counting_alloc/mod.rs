//! The per-thread counting allocator the engine's allocation audits share
//! (`zero_alloc_wait.rs`, `bind_alloc.rs`): each declares `mod
//! counting_alloc;` and so installs it as its binary's global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by *this* thread. The tests of one binary run on
    /// parallel threads, and each audit is about its own: a process-wide
    /// count let a neighbour test's allocation (a spawn, the harness
    /// printing a result) land inside another's counted region and fail it.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: delegates verbatim to the system allocator; the counter is the
// only addition.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(l) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        unsafe { System.dealloc(p, l) }
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
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
