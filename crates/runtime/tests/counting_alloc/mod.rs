//! The per-thread counting allocator the allocation audits share
//! (`zero_alloc.rs`, and the per-prefix bound in `fuse_differential.rs`):
//! each declares `mod counting_alloc;` and so installs it as its binary's
//! global allocator — the convention of `crates/engine/tests/counting_alloc`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by *this* thread. Each audit runs its calls on its
    /// own test thread, so a per-thread count sees exactly the audited
    /// path: a process-wide one also caught the harness spawning the next
    /// test mid-audit, and failed about one run in fifteen.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those allocations asked for.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Allocations (and reallocations) this thread has made so far.
pub fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Bytes this thread's allocations (and reallocations, at their new size)
/// have asked for so far.
#[allow(dead_code)] // only some of the binaries that share this file size their blocks
pub fn alloc_bytes() -> u64 {
    BYTES.with(Cell::get)
}

fn count(size: usize) {
    ALLOCS.with(|n| n.set(n.get() + 1));
    BYTES.with(|n| n.set(n.get() + size as u64));
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
