//! A health-check circuit breaker gating admission to the engine.
//!
//! Consecutive dispatch failures trip the breaker *open*: further calls
//! are refused at admission with a disconnect-class error, so supervised
//! clients fail over to a standby instead of piling onto a sick server.
//! After a sim-time cooldown the breaker goes *half-open* and admits one
//! probe; the probe's outcome decides between closing (recovered) and
//! re-opening (still sick). All transitions are measured on the
//! deterministic [`SimClock`](flexrpc_clock::SimClock) time passed in by the engine, so breaker
//! behavior is exactly reproducible in tests.

use parking_lot::Mutex;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Healthy: admitting, counting consecutive failures.
    Closed { consecutive: u32 },
    /// Tripped: refusing until `since + cooldown` passes.
    Open { since: u64 },
    /// Cooled down: one probe is in flight, everyone else refused.
    HalfOpen,
}

flexrpc_trace::instruments! {
    /// The breaker's live counters, adopted under `breaker.*` names.
    pub struct BreakerCounters {
        /// Closed/half-open → open transitions.
        trips: Counter = "breaker.trip",
        /// Probes admitted while half-open.
        probes: Counter = "breaker.probe",
        /// Half-open → closed transitions (probe succeeded).
        recoveries: Counter = "breaker.recovery",
    }
    /// Counters describing breaker activity, plus its current gate state.
    #[derive(Eq)]
    pub struct BreakerStats {
        /// True while the breaker refuses admission.
        open: bool,
    }
}

/// A consecutive-failure circuit breaker with sim-time cooldown.
pub struct CircuitBreaker {
    threshold: u32,
    cooldown_ns: u64,
    state: Mutex<State>,
    pub(crate) counters: BreakerCounters,
}

impl CircuitBreaker {
    /// Trips after `threshold` consecutive failures; probes after
    /// `cooldown_ns` of sim time open.
    pub fn new(threshold: u32, cooldown_ns: u64) -> CircuitBreaker {
        CircuitBreaker {
            threshold: threshold.max(1),
            cooldown_ns,
            state: Mutex::new(State::Closed { consecutive: 0 }),
            counters: BreakerCounters::default(),
        }
    }

    /// Admission gate: may a call proceed at sim time `now_ns`?
    /// While open past the cooldown, admits exactly one probe (half-open).
    pub(crate) fn allow(&self, now_ns: u64) -> bool {
        let mut state = self.state.lock();
        match *state {
            State::Closed { .. } => true,
            State::Open { since } => {
                if now_ns >= since.saturating_add(self.cooldown_ns) {
                    *state = State::HalfOpen;
                    self.counters.probes.inc();
                    true
                } else {
                    false
                }
            }
            State::HalfOpen => false,
        }
    }

    /// Records one admitted call's outcome at sim time `now_ns`.
    pub fn record(&self, ok: bool, now_ns: u64) {
        let mut state = self.state.lock();
        match (*state, ok) {
            (State::Closed { .. }, true) => *state = State::Closed { consecutive: 0 },
            (State::Closed { consecutive }, false) => {
                let consecutive = consecutive + 1;
                if consecutive >= self.threshold {
                    *state = State::Open { since: now_ns };
                    self.counters.trips.inc();
                } else {
                    *state = State::Closed { consecutive };
                }
            }
            // The probe decides: success closes, failure re-opens (and
            // restarts the cooldown from now).
            (State::HalfOpen, true) => {
                *state = State::Closed { consecutive: 0 };
                self.counters.recoveries.inc();
            }
            (State::HalfOpen, false) => {
                *state = State::Open { since: now_ns };
                self.counters.trips.inc();
            }
            // Late results from calls admitted before a trip: no-ops.
            (State::Open { .. }, _) => {}
        }
    }

    /// True while admission is refused (open and still cooling).
    pub(crate) fn is_open(&self, now_ns: u64) -> bool {
        match *self.state.lock() {
            State::Open { since } => now_ns < since.saturating_add(self.cooldown_ns),
            State::HalfOpen => true,
            State::Closed { .. } => false,
        }
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> BreakerStats {
        self.counters.snapshot(!matches!(*self.state.lock(), State::Closed { .. }))
    }
}

impl std::fmt::Debug for CircuitBreaker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CircuitBreaker")
            .field("threshold", &self.threshold)
            .field("cooldown_ns", &self.cooldown_ns)
            .field("state", &*self.state.lock())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_after_threshold_consecutive_failures() {
        let b = CircuitBreaker::new(3, 1_000);
        assert!(b.allow(0));
        b.record(false, 0);
        b.record(true, 0); // Success resets the streak.
        b.record(false, 0);
        b.record(false, 0);
        assert!(b.allow(0), "two consecutive failures: still closed");
        b.record(false, 0);
        assert!(!b.allow(0), "third consecutive failure trips");
        assert_eq!(b.stats().trips, 1);
        assert!(b.stats().open);
    }

    #[test]
    fn probe_after_cooldown_then_recovery() {
        let b = CircuitBreaker::new(1, 1_000);
        b.record(false, 100); // Trips at t=100.
        assert!(!b.allow(1_099), "cooling until t=1100");
        assert!(b.allow(1_100), "the probe");
        assert!(!b.allow(1_100), "only one probe while half-open");
        b.record(true, 1_200);
        assert!(b.allow(1_200), "recovered");
        let s = b.stats();
        assert_eq!((s.trips, s.probes, s.recoveries), (1, 1, 1));
        assert!(!s.open);
    }

    #[test]
    fn failed_probe_reopens_with_fresh_cooldown() {
        let b = CircuitBreaker::new(1, 1_000);
        b.record(false, 0);
        assert!(b.allow(1_000));
        b.record(false, 1_500); // Probe failed at t=1500.
        assert!(!b.allow(2_400), "cooldown restarts from the failed probe");
        assert!(b.allow(2_500));
        assert_eq!(b.stats().trips, 2);
    }
}
