//! Offline stand-in for the `parking_lot` crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! provides the subset of the `parking_lot` API it actually uses, backed by
//! `std::sync`. Semantics match parking_lot where they matter to callers:
//! `lock()`/`read()`/`write()` return guards directly (poisoning is
//! absorbed rather than surfaced, like parking_lot's no-poisoning design).
//!
//! **Notifying a [`Condvar`] nobody waits on never enters the kernel.**
//! `std`'s `notify_one` is an unconditional `futex_wake` syscall — about
//! 150 ns on the reference box with no thread parked — where the real
//! `parking_lot` returns in user space. The engine's call path notifies on
//! every replica return, queue push, queue pop and submit signal, nearly
//! always with nobody parked, so that syscall was a third of an inline
//! call. This `Condvar` counts its parked waiters and `notify_*` returns
//! after one atomic load when the count is zero. That is sound under the
//! usual condvar contract, which every caller in the workspace follows: the
//! notifier changes the predicate while holding the mutex the waiter
//! waits with (see [`Condvar`]).

use std::sync;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Mutual exclusion primitive (API-compatible subset of `parking_lot::Mutex`).
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

/// Guard returned by [`Mutex::lock`].
pub type MutexGuard<'a, T> = sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    /// Creates a new mutex.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex(sync::Mutex::new(value))
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until available. A panicked prior holder
    /// does not poison the lock (parking_lot semantics).
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Attempts to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(g),
            Err(sync::TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

/// Reader-writer lock (API-compatible subset of `parking_lot::RwLock`).
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(sync::RwLock<T>);

/// Guard returned by [`RwLock::read`].
pub type RwLockReadGuard<'a, T> = sync::RwLockReadGuard<'a, T>;
/// Guard returned by [`RwLock::write`].
pub type RwLockWriteGuard<'a, T> = sync::RwLockWriteGuard<'a, T>;

impl<T> RwLock<T> {
    /// Creates a new reader-writer lock.
    pub const fn new(value: T) -> RwLock<T> {
        RwLock(sync::RwLock::new(value))
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquires exclusive write access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

/// Condition variable (API-compatible subset of `parking_lot::Condvar`).
///
/// A waiter is counted from before it releases the mutex until after it
/// holds it again, and a notify with a zero count returns without a
/// syscall. No wakeup is lost as long as the notifier changed the predicate
/// under the waiter's mutex: either the notifier's critical section came
/// first and the waiter sees the new predicate instead of waiting, or the
/// waiter's did, and then its count is visible to the notifier through the
/// mutex hand-over before the notifier decides whether to wake.
#[derive(Debug, Default)]
pub struct Condvar {
    inner: sync::Condvar,
    /// Threads inside `wait` / `wait_for`. Only changed with the waiter's
    /// mutex held.
    waiters: AtomicUsize,
}

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Condvar {
        Condvar { inner: sync::Condvar::new(), waiters: AtomicUsize::new(0) }
    }

    /// Blocks until notified, releasing `guard` while waiting.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        self.waiters.fetch_add(1, Ordering::SeqCst);
        // Safety dance: std's wait consumes and returns the guard; emulate
        // parking_lot's in-place signature by replacing through a move.
        take_mut(guard, |g| self.inner.wait(g).unwrap_or_else(|e| e.into_inner()));
        self.waiters.fetch_sub(1, Ordering::SeqCst);
    }

    /// Blocks until notified or `timeout` elapses, releasing `guard` while
    /// waiting. Returns whether the wait timed out.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: std::time::Duration,
    ) -> WaitTimeoutResult {
        let mut timed_out = false;
        self.waiters.fetch_add(1, Ordering::SeqCst);
        take_mut(guard, |g| {
            let (g, r) = self.inner.wait_timeout(g, timeout).unwrap_or_else(|e| e.into_inner());
            timed_out = r.timed_out();
            g
        });
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        WaitTimeoutResult(timed_out)
    }

    /// Wakes one waiter; returns in user space when nobody waits.
    pub fn notify_one(&self) {
        if self.waiters.load(Ordering::SeqCst) != 0 {
            self.inner.notify_one();
        }
    }

    /// Wakes all waiters; returns in user space when nobody waits.
    pub fn notify_all(&self) {
        if self.waiters.load(Ordering::SeqCst) != 0 {
            self.inner.notify_all();
        }
    }
}

/// Result of [`Condvar::wait_for`] (mirrors `parking_lot::WaitTimeoutResult`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// True if the wait ended because the timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// Replaces `*dest` through a closure that consumes the old value. Aborts on
/// panic inside `f` (cannot happen here: `wait` absorbs poisoning).
fn take_mut<T>(dest: &mut T, f: impl FnOnce(T) -> T) {
    // SAFETY: `old` is read out and `dest` is unconditionally rewritten with
    // `f(old)` before any return path; `f` (std Condvar::wait with poison
    // absorption) does not unwind in practice, and a panic would abort via
    // the guard below rather than expose a double-free.
    struct Abort;
    impl Drop for Abort {
        fn drop(&mut self) {
            std::process::abort();
        }
    }
    unsafe {
        let old = std::ptr::read(dest);
        let bomb = Abort;
        let new = f(old);
        std::mem::forget(bomb);
        std::ptr::write(dest, new);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(m.try_lock().is_some());
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_basic() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(*l.read(), vec![1, 2, 3]);
    }

    #[test]
    fn lock_survives_panicked_holder() {
        let m = Arc::new(Mutex::new(0));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        assert_eq!(*m.lock(), 0, "no poisoning");
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let r = cv.wait_for(&mut g, std::time::Duration::from_millis(5));
        assert!(r.timed_out());
    }

    /// Two threads hand one counter back and forth 10k times; each parks
    /// until the other has advanced it under the mutex. One side notifies
    /// while holding the lock, the other after releasing it, so the
    /// notifier meets the waiter both parked and on its way to park. A
    /// notify skipped on a stale zero count would leave the peer parked
    /// until the (generous) timeout, which fails the test.
    #[test]
    fn condvar_misses_no_wakeup_in_ten_thousand_handoffs() {
        const ROUNDS: u32 = 10_000;
        let shared = Arc::new((Mutex::new(0u32), Condvar::new()));
        let players: Vec<_> = (0..2u32)
            .map(|parity| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    let (turn, cv) = &*shared;
                    let mut t = turn.lock();
                    while *t < ROUNDS {
                        if *t % 2 != parity {
                            let r = cv.wait_for(&mut t, std::time::Duration::from_secs(30));
                            assert!(!r.timed_out(), "wakeup missed at turn {}", *t);
                        } else if parity == 0 {
                            *t += 1;
                            cv.notify_one();
                        } else {
                            *t += 1;
                            drop(t);
                            cv.notify_one();
                            t = turn.lock();
                        }
                    }
                })
            })
            .collect();
        for p in players {
            p.join().unwrap();
        }
        assert_eq!(*shared.0.lock(), ROUNDS);
        assert_eq!(shared.1.waiters.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn condvar_timeout_uncounts_the_waiter_and_later_waiters_still_wake() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        {
            let (m, cv) = &*pair;
            let mut g = m.lock();
            assert!(cv.wait_for(&mut g, std::time::Duration::from_millis(5)).timed_out());
            assert_eq!(cv.waiters.load(Ordering::SeqCst), 0, "a timed-out waiter is uncounted");
            cv.notify_one(); // nobody parked: must be harmless
        }
        let p2 = Arc::clone(&pair);
        let waiter = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut done = m.lock();
            while !*done {
                cv.wait(&mut done);
            }
        });
        let (m, cv) = &*pair;
        // The count is the rendezvous: once it reads 1 the waiter is inside
        // `wait`, and taking the mutex proves it has released it there.
        while cv.waiters.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        *m.lock() = true;
        cv.notify_one();
        waiter.join().unwrap();
        assert_eq!(cv.waiters.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn condvar_wakes() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut done = m.lock();
            while !*done {
                cv.wait(&mut done);
            }
        });
        let (m, cv) = &*pair;
        *m.lock() = true;
        cv.notify_all();
        t.join().unwrap();
    }
}
