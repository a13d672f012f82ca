//! A reply slot built from std parts: one-shot per use, reusable through
//! `reset`.
//!
//! The value sits under a `Mutex` with a `Condvar` to park on. One atomic
//! flag, `full`, is stored under that lock by the fill, so asking "is the
//! reply here yet?" costs one `Acquire` load and no lock. That is the
//! question an engine ticket asks first (`try_take`): when the answer is no
//! it may run its own job, and then keeps the reply it produced without
//! touching this slot. Every other reply arrives through `fill` and is taken
//! under the lock: a worker's, a thief's, and a teardown's `Cancelled`,
//! which the shutdown run by the waiter's last engine handle as it dropped
//! may fill on the waiter's own thread.
//!
//! Contract, per use: exactly one value is published (later `fill`s are
//! dropped, first wins) and at most one thread waits on the slot. A use
//! ends at `reset` (crate-internal), which takes `&mut self`: whoever calls it
//! has proved no filler or waiter of the previous use still holds the slot,
//! so nothing of that use — a late fill, an untaken value, a parked mark an
//! abandoned deadline wait left behind — can reach the next. The engine
//! keeps each call's slot in a recycled job cell and resets it on reuse,
//! once `Arc::get_mut` shows the worker has let go.
//!
//! Why std parts: until commit f2dcfe2 this file was a four-state
//! compare-and-swap machine over an `UnsafeCell`, with a pre-park spin,
//! kept because a `Mutex` + `Condvar` slot had lost 3.7 % on
//! `engine_pipelined` at 7f6102b. Since f2dcfe2 a waiter that runs its own
//! job keeps its reply, so on that workload nearly every call only asks
//! "not yet?" of its slot. With this file in its place, ten alternating
//! pairs of `scripts/pairs.sh engine_pipelined 10` (15 s runs, seeds
//! 36101–36110, a 2-vCPU box) read `engine_pipelined` at a median 2.716 M
//! calls/s against the lock-free slot's 2.683 M (+1.2 %, 5 of 10 pairs,
//! parent IQR 5.5 %) with equal allocations and no failed call: no loss, so
//! the slot is built from std parts. EXPERIMENTS.md, "A reply slot from std
//! parts", has those runs and the rest of the measurement.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// A single-producer single-consumer completion slot, one-shot between
/// `reset`s.
pub struct ReplySlot<T> {
    /// Set by the fill, under `state`'s lock: it says "filled" to a later
    /// fill (first wins) and to a `try_take` that does not lock. The fill's
    /// `Release` store pairs with `try_take`'s `Acquire` load; the value
    /// itself is only read under the lock.
    full: AtomicBool,
    state: Mutex<State<T>>,
    ready: Condvar,
}

struct State<T> {
    /// The filled value until the waiter takes it.
    value: Option<T>,
    /// The waiter parked on `ready` in this use.
    parked: bool,
}

impl<T> Default for ReplySlot<T> {
    fn default() -> ReplySlot<T> {
        ReplySlot::new()
    }
}

impl<T> ReplySlot<T> {
    /// An empty slot.
    pub fn new() -> ReplySlot<T> {
        ReplySlot {
            full: AtomicBool::new(false),
            state: Mutex::new(State { value: None, parked: false }),
            ready: Condvar::new(),
        }
    }

    /// Returns the slot to empty for another use, dropping a value nobody
    /// took. Exclusive access is the whole protocol: no filler or waiter
    /// can exist while the caller holds `&mut self`.
    pub(crate) fn reset(&mut self) {
        *self.full.get_mut() = false;
        let state = self.state.get_mut().unwrap_or_else(PoisonError::into_inner);
        *state = State { value: None, parked: false };
    }

    /// Locks the state. Nothing under the lock can panic halfway through an
    /// update, so a poisoned lock left nothing behind to distrust.
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Publishes `value`. The first fill wins and returns `true`; any
    /// later fill drops its value and returns `false` (duplicate
    /// deliveries race their shadow's completion against the real one).
    pub fn fill(&self, value: T) -> bool {
        let mut state = self.lock();
        if self.full.load(Ordering::Relaxed) {
            return false;
        }
        state.value = Some(value);
        self.full.store(true, Ordering::Release);
        let parked = state.parked;
        drop(state);
        // Notify only a waiter that recorded it parked: `notify_one` is a
        // syscall even when nobody waits. The waiter records it under the
        // lock this fill held, so it either parked before the fill (and is
        // woken) or sees the value before it would park.
        if parked {
            self.ready.notify_one();
        }
        true
    }

    /// Takes the value if it is published already. "Not yet" is one
    /// `Acquire` load and never a wait; it says nothing about how near the
    /// fill is.
    pub(crate) fn try_take(&self) -> Option<T> {
        if !self.full.load(Ordering::Acquire) {
            return None;
        }
        self.lock().value.take()
    }

    /// Blocks until the value is published.
    pub fn wait(&self) -> T {
        let mut state = self.lock();
        loop {
            if let Some(value) = state.value.take() {
                return value;
            }
            state.parked = true;
            state = self.ready.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Blocks until the value is published or `expired()` reports the
    /// deadline passed. Deadlines live on a *sim* clock that other
    /// threads advance, so the park is sliced into short real-time waits
    /// with the predicate re-checked on each wake (with the slot locked:
    /// `expired` must not touch the slot). Returns `None` on expiry; a fill
    /// that lands after abandonment is dropped with the slot.
    pub fn wait_deadline(&self, mut expired: impl FnMut() -> bool) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(value) = state.value.take() {
                return Some(value);
            }
            if expired() {
                return None;
            }
            state.parked = true;
            let slice = self.ready.wait_timeout(state, Duration::from_millis(1));
            state = slice.unwrap_or_else(PoisonError::into_inner).0;
        }
    }
}

impl<T> std::fmt::Debug for ReplySlot<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = if self.full.load(Ordering::Relaxed) { "full" } else { "empty" };
        write!(f, "ReplySlot({state})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn fill_before_wait_never_parks() {
        let slot = ReplySlot::new();
        assert!(slot.fill(7u32));
        assert_eq!(slot.wait(), 7);
        assert!(!slot.lock().parked);
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
    fn a_fill_after_the_take_still_loses() {
        let slot = ReplySlot::new();
        assert!(slot.fill(1u32));
        assert_eq!(slot.try_take(), Some(1));
        assert!(!slot.fill(2), "first fill wins for the whole use");
        assert_eq!(format!("{slot:?}"), "ReplySlot(full)");
    }

    #[test]
    fn wait_parks_until_filled() {
        let slot = Arc::new(ReplySlot::new());
        let s = Arc::clone(&slot);
        let filler = thread::spawn(move || {
            thread::sleep(Duration::from_millis(10)); // let the waiter park
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
                thread::sleep(Duration::from_millis(10)); // let the waiter park
                s.fill(round);
            });
            assert_eq!(slot.wait(), round);
            filler.join().unwrap();
            Arc::get_mut(&mut slot).expect("filler joined").reset();
        }
        // An abandoned deadline wait leaves the slot marked parked; reset
        // clears that too, so the next fill notifies nobody.
        let mut polls = 0;
        let expired_on_second_poll = || {
            polls += 1;
            polls > 1
        };
        assert_eq!(slot.wait_deadline(expired_on_second_poll), None);
        assert!(slot.lock().parked);
        Arc::get_mut(&mut slot).expect("sole owner").reset();
        assert!(!slot.lock().parked);
        assert!(slot.fill(9));
        assert_eq!(slot.wait(), 9);
    }

    /// Shim-backed interleaving sweep (no loom in the tree): drive the
    /// fill/wait race through many seeded schedules — filler leading,
    /// landing as the waiter takes the lock, and landing after the waiter
    /// parked — and assert the value always arrives exactly once. The
    /// yield-based stagger makes each band hit a different order of the
    /// fill's and the waiter's turns at the lock.
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
