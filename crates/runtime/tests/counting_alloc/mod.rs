//! The per-thread counting allocator every allocation audit in the
//! workspace shares: this crate's `zero_alloc.rs` and the per-prefix bound
//! in `fuse_differential.rs` declare `mod counting_alloc;`, the engine's
//! `zero_alloc_wait.rs` and `bind_alloc.rs` and the kernel's
//! `send_window.rs` include this file by `#[path]`.
//! Declaring the module installs it as that binary's global allocator.
// Each binary uses its own part of this file.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    /// Allocations made by *this* thread. The tests of one binary run on
    /// parallel threads, and each audit is about its own: a process-wide
    /// count let a neighbour test's allocation (a spawn, the harness
    /// printing a result) land inside another's counted region and fail it.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those allocations asked for.
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// Whether this thread also counts into `ENROLLED` ([`enrol`]).
    static IS_ENROLLED: Cell<bool> = const { Cell::new(false) };
}

/// Allocations made by every enrolled thread together: an audit of work
/// that may run on either of two threads counts both, and still none of a
/// neighbour test's.
static ENROLLED: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    ALLOCS.with(|n| n.set(n.get() + 1));
    BYTES.with(|n| n.set(n.get() + size as u64));
    if IS_ENROLLED.with(Cell::get) {
        ENROLLED.fetch_add(1, Ordering::Relaxed);
    }
}

struct Counting;

// SAFETY: delegates verbatim to the system allocator; the counter is the
// only addition.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        count(l.size());
        unsafe { System.alloc(l) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        unsafe { System.dealloc(p, l) }
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        count(n);
        unsafe { System.realloc(p, l, n) }
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

/// Allocations (and reallocations) this thread has made so far.
pub fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Bytes this thread's allocations (and reallocations, at their new size)
/// have asked for so far.
pub fn alloc_bytes() -> u64 {
    BYTES.with(Cell::get)
}

/// Runs `f`, returning how many allocations (reallocations included) the
/// calling thread made meanwhile, and `f`'s result.
pub fn counted<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = allocs();
    let r = f();
    (allocs() - before, r)
}

/// Makes the calling thread's allocations count into [`enrolled_allocs`]
/// from now on (a handler calls this, to enrol whichever thread runs it).
pub fn enrol() {
    IS_ENROLLED.with(|e| e.set(true));
}

/// Allocations every enrolled thread has made so far, together.
pub fn enrolled_allocs() -> u64 {
    ENROLLED.load(Ordering::Relaxed)
}
