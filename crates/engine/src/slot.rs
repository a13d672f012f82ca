//! A lock-free reply slot: one-shot per use, reusable through `reset`.
//!
//! The engine's old `ReplySlot` was a `Mutex<Option<Result<Reply>>>` plus
//! a `Condvar` whose `fill` woke *every* waiter: every reply paid two
//! lock round-trips and a broadcast even when nobody was parked. This
//! slot is an atomic state machine instead — a seqlock-style publish on
//! the writer side, and a waiter that only touches the mutex/condvar
//! pair on actual contention (it parked and must be woken):
//!
//! ```text
//!   EMPTY ──fill──▶ FILLING ──publish──▶ FULL
//!     │                                    ▲
//!     └──waiter parks──▶ PARKED ──fill─────┘ (wake under the park lock)
//! ```
//!
//! The warm path — reply ready by the time the waiter looks, the common
//! case for a fast handler — is one `Acquire` load and a value move: no
//! lock, no syscall, no allocation (audited in
//! `crates/engine/tests/zero_alloc_wait.rs`). An engine ticket whose first
//! look (`try_take`) finds nothing may run its own job, and then keeps the
//! reply it produced without touching this slot. Every other reply arrives
//! through `fill`, which may run on the waiter's own thread: a teardown's
//! `Cancelled`, filled by the shutdown that the waiter's last engine handle
//! ran as it dropped, is then taken by the same thread.
//!
//! Contract, per use: exactly one value is published (later `fill`s are
//! dropped, first wins) and at most one thread waits on the slot. A use
//! ends at `reset` (crate-internal), which takes `&mut self`: whoever calls it
//! has proved no filler or waiter of the previous use still holds the slot,
//! so nothing of that use — a late fill, an untaken value, a parked state
//! an abandoned deadline wait left behind — can reach the next. The engine
//! keeps each call's slot in a recycled job cell and resets it on reuse,
//! once `Arc::get_mut` shows the worker has let go.
//!
//! Why the `unsafe` stays (besides this file, only `bench::sample`'s
//! `ptrace` calls and a test allocator write `unsafe`; `tests/surface.rs`
//! keeps that inventory): it was measured against the safe alternative. With
//! this file swapped for a `Mutex<State<T>>` + `Condvar` slot (every
//! engine test passing, `zero_alloc_wait` included), ten alternating pairs
//! of `benchmark/run.sh --workload engine_pipelined --seconds 5` at commit
//! 7f6102b put `ops_per_s` at a median 1.233 M with this slot against
//! 1.187 M with the safe one: −3.7 %, the safe slot losing all ten pairs
//! where the lock-free slot's own run-to-run spread is ≈1.5 % (still −2 %,
//! losing five of six, with the pre-park spin added back). Allocations per
//! call were equal on `std` primitives. That is not within noise, so the
//! lock-free slot is kept; delete it only on a measurement that says
//! otherwise.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// No value yet, no waiter parked.
const EMPTY: u32 = 0;
/// A filler has claimed the slot and is writing the value.
const FILLING: u32 = 1;
/// The value is published and readable.
const FULL: u32 = 2;
/// The waiter is parked (or about to park) on the condvar.
const PARKED: u32 = 3;

/// Bounded pre-park spin: a handful of polite spins covers the
/// "reply lands a few instructions after the waiter arrives" window
/// without burning a core (this repo's target box has exactly one). By the
/// time an engine ticket spins here it has already tried to run its own
/// job (`CallTicket::wait`) and a guard said no — a worker is serving the
/// shard, or calls are queued ahead of this one — so the reply is another
/// thread's to publish and the yields are what let it.
const SPINS: u32 = 64;
const YIELD_AFTER: u32 = 8;

/// A single-producer single-consumer completion slot, one-shot between
/// `reset`s.
pub struct ReplySlot<T> {
    state: AtomicU32,
    value: UnsafeCell<Option<T>>,
    /// Touched only when the waiter actually parks, which `PARKED` records:
    /// `fill` notifies only when it saw that state, so the slot needs no
    /// count of its sleepers.
    park: Mutex<()>,
    ready: Condvar,
}

// SAFETY: the state machine guarantees exclusive access to `value` —
// only the filler that wins the EMPTY/PARKED → FILLING transition
// writes it, and only the single waiter reads it after observing FULL
// with `Acquire` (which pairs with the filler's `Release` publish).
// `state`, `park` and `ready` are `Send + Sync` themselves; `T: Send`
// because the value moves from the filler's thread to the waiter's.
unsafe impl<T: Send> Send for ReplySlot<T> {}
unsafe impl<T: Send> Sync for ReplySlot<T> {}

impl<T> Default for ReplySlot<T> {
    fn default() -> ReplySlot<T> {
        ReplySlot::new()
    }
}

impl<T> ReplySlot<T> {
    /// An empty slot.
    pub fn new() -> ReplySlot<T> {
        ReplySlot {
            state: AtomicU32::new(EMPTY),
            value: UnsafeCell::new(None),
            park: Mutex::new(()),
            ready: Condvar::new(),
        }
    }

    /// Returns the slot to empty for another use, dropping a value nobody
    /// took. Exclusive access is the whole protocol: no filler or waiter
    /// can exist while the caller holds `&mut self`.
    pub(crate) fn reset(&mut self) {
        *self.state.get_mut() = EMPTY;
        *self.value.get_mut() = None;
    }

    /// Publishes `value`. The first fill wins and returns `true`; any
    /// later fill drops its value and returns `false` (duplicate
    /// deliveries race their shadow's completion against the real one).
    pub fn fill(&self, value: T) -> bool {
        loop {
            match self.state.compare_exchange(EMPTY, FILLING, Ordering::Acquire, Ordering::Acquire)
            {
                Ok(_) => {
                    // No waiter parked: write, publish, done — the
                    // lock-free fast path.
                    // SAFETY: winning EMPTY → FILLING makes this the one
                    // filler of this use, and no waiter reads `value`
                    // before it sees FULL, which is stored only below.
                    unsafe { *self.value.get() = Some(value) };
                    self.state.store(FULL, Ordering::Release);
                    return true;
                }
                Err(PARKED) => {
                    if self
                        .state
                        .compare_exchange(PARKED, FILLING, Ordering::Acquire, Ordering::Acquire)
                        .is_err()
                    {
                        continue; // Raced with the waiter; re-read.
                    }
                    // SAFETY: winning PARKED → FILLING makes this the one
                    // filler of this use; the parked waiter reads `value`
                    // only after the FULL store below.
                    unsafe { *self.value.get() = Some(value) };
                    // Publish *under the park lock*: the waiter parks and
                    // re-checks state under the same lock, so the wake
                    // cannot slip between its check and its wait.
                    let _guard = self.park();
                    self.state.store(FULL, Ordering::Release);
                    self.ready.notify_all();
                    return true;
                }
                Err(_) => return false, // FULL or FILLING: first fill won.
            }
        }
    }

    /// Locks the park mutex. It guards no data, so a holder that panicked
    /// left nothing behind to distrust.
    fn park(&self) -> MutexGuard<'_, ()> {
        self.park.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Takes the published value. Caller observed `FULL` with `Acquire`.
    fn take(&self) -> T {
        // SAFETY: FULL is stored once per use, after the filler's last
        // write, and its `Release` pairs with the caller's `Acquire`; only
        // the use's single waiter calls this, so nothing else touches
        // `value` until `reset`, which takes `&mut self`.
        unsafe { (*self.value.get()).take() }.expect("FULL slot holds a value")
    }

    /// Takes the value if it is published already: one `Acquire` load,
    /// never a wait. `None` says nothing about how near the fill is.
    pub(crate) fn try_take(&self) -> Option<T> {
        (self.state.load(Ordering::Acquire) == FULL).then(|| self.take())
    }

    /// The warm path: spin briefly for a reply that is ready or imminent.
    fn try_take_spin(&self) -> Option<T> {
        for i in 0..SPINS {
            match self.state.load(Ordering::Acquire) {
                FULL => return Some(self.take()),
                // FILLING: the value write is in flight, stay put.
                _ if i < YIELD_AFTER => std::hint::spin_loop(),
                _ => std::thread::yield_now(),
            }
        }
        None
    }

    /// Blocks until the value is published.
    pub fn wait(&self) -> T {
        if let Some(v) = self.try_take_spin() {
            return v;
        }
        loop {
            let guard = self.park();
            match self.state.compare_exchange(EMPTY, PARKED, Ordering::Acquire, Ordering::Acquire) {
                // Parked (or still parked after a spurious wake): sleep
                // until the filler publishes under this same lock. The
                // loop re-locks, so the guard the wake returns is dropped.
                Ok(_) | Err(PARKED) => drop(self.ready.wait(guard)),
                Err(FULL) => {
                    drop(guard);
                    return self.take();
                }
                Err(_filling) => {
                    // Publish is a few instructions away.
                    drop(guard);
                    std::hint::spin_loop();
                }
            }
        }
    }

    /// Blocks until the value is published or `expired()` reports the
    /// deadline passed. Deadlines live on a *sim* clock that other
    /// threads advance, so the park is sliced into short real-time waits
    /// with the predicate re-checked on each wake. Returns `None` on
    /// expiry; a fill that lands after abandonment is dropped with the
    /// slot.
    pub fn wait_deadline(&self, mut expired: impl FnMut() -> bool) -> Option<T> {
        if let Some(v) = self.try_take_spin() {
            return Some(v);
        }
        loop {
            if expired() {
                return None;
            }
            let guard = self.park();
            match self.state.compare_exchange(EMPTY, PARKED, Ordering::Acquire, Ordering::Acquire) {
                Ok(_) | Err(PARKED) => {
                    drop(self.ready.wait_timeout(guard, Duration::from_millis(1)));
                }
                Err(FULL) => {
                    drop(guard);
                    return Some(self.take());
                }
                Err(_filling) => {
                    drop(guard);
                    std::hint::spin_loop();
                }
            }
        }
    }
}

impl<T> std::fmt::Debug for ReplySlot<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = match self.state.load(Ordering::Relaxed) {
            EMPTY => "empty",
            FILLING => "filling",
            FULL => "full",
            PARKED => "parked",
            _ => "?",
        };
        write!(f, "ReplySlot({state})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn fill_before_wait_is_the_lock_free_path() {
        let slot = ReplySlot::new();
        assert!(slot.fill(7u32));
        assert_eq!(slot.wait(), 7);
    }

    #[test]
    fn try_take_never_waits() {
        let slot = ReplySlot::new();
        assert_eq!(slot.try_take(), None::<u32>);
        assert!(slot.fill(7));
        assert_eq!(slot.try_take(), Some(7));
    }

    #[test]
    fn first_fill_wins() {
        let slot = ReplySlot::new();
        assert!(slot.fill("real"));
        assert!(!slot.fill("shadow"));
        assert_eq!(slot.wait(), "real");
    }

    #[test]
    fn wait_parks_until_filled() {
        let slot = Arc::new(ReplySlot::new());
        let s = Arc::clone(&slot);
        let filler = thread::spawn(move || {
            thread::sleep(Duration::from_millis(10)); // outlast the spin
            s.fill(42u32);
        });
        assert_eq!(slot.wait(), 42);
        filler.join().unwrap();
    }

    #[test]
    fn deadline_expiry_abandons_and_late_fill_is_harmless() {
        let slot = Arc::new(ReplySlot::new());
        let mut polls = 0u32;
        assert_eq!(
            slot.wait_deadline(|| {
                polls += 1;
                polls > 3
            }),
            None::<u32>
        );
        // The worker finishes later and fills the abandoned slot.
        assert!(slot.fill(9));
        assert!(!slot.fill(10));
    }

    #[test]
    fn deadline_wait_still_receives_a_timely_fill() {
        let slot = Arc::new(ReplySlot::new());
        let s = Arc::clone(&slot);
        let filler = thread::spawn(move || {
            thread::sleep(Duration::from_millis(5));
            s.fill(1u32);
        });
        assert_eq!(slot.wait_deadline(|| false), Some(1));
        filler.join().unwrap();
    }

    #[test]
    fn reset_makes_the_slot_one_shot_again() {
        let mut slot = ReplySlot::new();
        assert!(slot.fill(1u32));
        assert_eq!(slot.wait(), 1);
        slot.reset();
        assert!(slot.fill(2));
        assert!(!slot.fill(3), "first fill wins within a use");
        assert_eq!(slot.wait(), 2);
        // A value nobody took does not leak into the next use.
        slot.reset();
        assert!(slot.fill(4));
        slot.reset();
        assert!(slot.fill(5));
        assert_eq!(slot.wait(), 5);
    }

    #[test]
    fn reset_after_a_parked_wait() {
        let mut slot = Arc::new(ReplySlot::new());
        for round in 0..2u32 {
            let s = Arc::clone(&slot);
            let filler = thread::spawn(move || {
                thread::sleep(Duration::from_millis(10)); // outlast the spin
                s.fill(round);
            });
            assert_eq!(slot.wait(), round);
            filler.join().unwrap();
            Arc::get_mut(&mut slot).expect("filler joined").reset();
        }
        // An abandoned deadline wait leaves the slot PARKED; reset clears
        // that too, and the next fill takes the lock-free path.
        let mut polls = 0;
        let expired_on_second_poll = || {
            polls += 1;
            polls > 1
        };
        assert_eq!(slot.wait_deadline(expired_on_second_poll), None);
        assert_eq!(format!("{slot:?}"), "ReplySlot(parked)");
        Arc::get_mut(&mut slot).expect("sole owner").reset();
        assert!(slot.fill(9));
        assert_eq!(slot.wait(), 9);
    }

    /// Shim-backed interleaving sweep (no loom in the tree): drive the
    /// fill/wait race through many seeded schedules — filler leading,
    /// landing mid-spin, and landing after the waiter parked — and
    /// assert the value always arrives exactly once. The yield-based
    /// stagger makes each band hit a different region of the state
    /// machine (EMPTY fast path, FILLING observation, PARKED wake).
    #[test]
    fn interleaving_sweep_never_loses_a_value() {
        for round in 0..200u64 {
            let slot = Arc::new(ReplySlot::new());
            let s = Arc::clone(&slot);
            let stagger = round % 20;
            let filler = thread::spawn(move || {
                for _ in 0..stagger {
                    thread::yield_now();
                }
                if stagger >= 15 {
                    // Band 3: guarantee the waiter is parked.
                    thread::sleep(Duration::from_millis(2));
                }
                assert!(s.fill(round));
            });
            assert_eq!(slot.wait(), round);
            filler.join().unwrap();
        }
    }

    /// Same sweep against the sliced deadline wait: with a deadline that
    /// never expires, no schedule may drop the value.
    #[test]
    fn interleaving_sweep_with_deadline_wait() {
        for round in 0..100u64 {
            let slot = Arc::new(ReplySlot::new());
            let s = Arc::clone(&slot);
            let stagger = round % 20;
            let filler = thread::spawn(move || {
                for _ in 0..stagger {
                    thread::yield_now();
                }
                assert!(s.fill(round));
            });
            assert_eq!(slot.wait_deadline(|| false), Some(round));
            filler.join().unwrap();
        }
    }
}
