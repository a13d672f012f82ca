//! The injector's unarmed fast path must be invisible.
//!
//! [`FaultInjector`] answers a call from one atomic load whenever nothing
//! is armed, and numbers only the calls that find it armed. This test keeps
//! the straight-line algorithm — every call is numbered and walks the down
//! state, the partitions and the plan — as a reference, drives both with
//! the same arbitrary interleaving of arming, disarming and calls, and
//! requires the same fault for every call. Plan entries are call numbers,
//! so a plan must fire on the same call whichever calls were numbered
//! before it was made.

use flexrpc_clock::{Fault, FaultInjector};
use proptest::prelude::*;

const ANY: u64 = FaultInjector::ANY;

/// The injector's contract, with no fast path and no locks.
#[derive(Default)]
struct Reference {
    plan: Vec<(u64, Fault)>,
    calls: u64,
    down: Option<Option<u64>>,
    partitions: Vec<(u64, u64, u64)>,
}

fn pair_matches(pa: u64, pb: u64, a: u64, b: u64) -> bool {
    let end = |p: u64, e: u64| p == ANY || p == e;
    (end(pa, a) && end(pb, b)) || (end(pa, b) && end(pb, a))
}

impl Reference {
    fn is_partitioned(&self, a: u64, b: u64, now: u64) -> bool {
        self.partitions.iter().any(|&(pa, pb, heal)| now < heal && pair_matches(pa, pb, a, b))
    }

    fn is_down(&self, now: u64) -> bool {
        match self.down {
            Some(Some(restart_at)) => now < restart_at,
            Some(None) => true,
            None => false,
        }
    }

    fn next_call_between(&mut self, now: u64, a: u64, b: u64) -> Option<Fault> {
        let n = self.calls;
        self.calls += 1;
        match self.down {
            Some(Some(restart_at)) if now >= restart_at => self.down = None,
            Some(_) => return Some(Fault::Crash { restart_after_ns: None }),
            None => {}
        }
        self.partitions.retain(|&(_, _, heal)| now < heal);
        if let Some(&(pa, pb, heal)) =
            self.partitions.iter().find(|&&(pa, pb, _)| pair_matches(pa, pb, a, b))
        {
            let heal_after_ns = if heal == u64::MAX { u64::MAX } else { heal - now };
            return Some(Fault::Partition { a: pa, b: pb, heal_after_ns });
        }
        let at = self.plan.iter().position(|(when, _)| *when == n)?;
        let fault = self.plan.swap_remove(at).1;
        match fault {
            Fault::Crash { restart_after_ns } => {
                self.down = Some(restart_after_ns.map(|d| now + d));
            }
            Fault::Partition { a: pa, b: pb, heal_after_ns } => {
                self.partitions.push((pa, pb, now.saturating_add(heal_after_ns)));
                if !pair_matches(pa, pb, a, b) {
                    return None;
                }
            }
            _ => {}
        }
        Some(fault)
    }
}

#[derive(Debug, Clone)]
enum Step {
    /// Advance the clock, then one call between `(a, b)`.
    Call {
        advance: u64,
        a: u64,
        b: u64,
    },
    Plan {
        nth: u64,
        fault: Fault,
    },
    Partition {
        a: u64,
        b: u64,
        heal_after: u64,
    },
    Heal {
        a: u64,
        b: u64,
    },
    HealAll,
    Crash {
        restart_after: Option<u64>,
    },
    Restore,
}

fn endpoint() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..3, 0u64..3, Just(ANY)]
}

fn span() -> impl Strategy<Value = u64> {
    prop_oneof![1u64..400, Just(u64::MAX)]
}

fn restart() -> impl Strategy<Value = Option<u64>> {
    prop_oneof![(1u64..400).prop_map(Some), Just(None)]
}

fn planned_fault() -> impl Strategy<Value = Fault> {
    prop_oneof![
        Just(Fault::Drop),
        Just(Fault::Duplicate),
        Just(Fault::Close),
        (1u64..100).prop_map(Fault::Delay),
        (2u64..9).prop_map(|factor| Fault::SlowLink { factor }),
        restart().prop_map(|restart_after_ns| Fault::Crash { restart_after_ns }),
        (endpoint(), endpoint(), span()).prop_map(|(a, b, heal_after_ns)| Fault::Partition {
            a,
            b,
            heal_after_ns
        }),
    ]
}

fn call() -> BoxedStrategy<Step> {
    (0u64..120, 0u64..3, 0u64..3).prop_map(|(advance, a, b)| Step::Call { advance, a, b }).boxed()
}

/// Calls are three of every nine steps, so runs of unarmed calls occur
/// between armings as well as runs that hit what was armed.
fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        call(),
        call(),
        call(),
        (0u64..5, planned_fault()).prop_map(|(nth, fault)| Step::Plan { nth, fault }),
        (endpoint(), endpoint(), span()).prop_map(|(a, b, heal_after)| Step::Partition {
            a,
            b,
            heal_after
        }),
        (endpoint(), endpoint()).prop_map(|(a, b)| Step::Heal { a, b }),
        Just(Step::HealAll),
        restart().prop_map(|restart_after| Step::Crash { restart_after }),
        Just(Step::Restore),
    ]
}

proptest! {
    #[test]
    fn fast_path_yields_the_reference_fault_sequence(
        steps in prop::collection::vec(step(), 1..80),
    ) {
        let real = FaultInjector::new();
        let mut model = Reference::default();
        let mut now = 0u64;
        for (i, step) in steps.iter().enumerate() {
            match *step {
                Step::Call { advance, a, b } => {
                    now += advance;
                    prop_assert_eq!(
                        real.next_call_between(now, a, b),
                        model.next_call_between(now, a, b),
                        "step {} ({:?}) at t={}", i, step, now
                    );
                }
                Step::Plan { nth, fault } => {
                    real.on_nth_call(nth, fault);
                    model.plan.push((model.calls + nth, fault));
                }
                Step::Partition { a, b, heal_after } => {
                    let heal_at = now.saturating_add(heal_after);
                    real.partition(a, b, heal_at);
                    model.partitions.push((a, b, heal_at));
                }
                Step::Heal { a, b } => {
                    real.heal(a, b);
                    model.partitions.retain(|&(pa, pb, _)| !pair_matches(pa, pb, a, b));
                }
                Step::HealAll => {
                    real.heal_all();
                    model.partitions.clear();
                }
                Step::Crash { restart_after } => {
                    let restart_at = restart_after.map(|d| now + d);
                    real.crash(restart_at);
                    model.down = Some(restart_at);
                }
                Step::Restore => {
                    real.restore();
                    model.down = None;
                }
            }
            prop_assert_eq!(real.is_down(now), model.is_down(now), "down after step {}", i);
            prop_assert_eq!(
                real.is_partitioned(0, 1, now),
                model.is_partitioned(0, 1, now),
                "partitioned after step {}", i
            );
        }
        // Drain: with link and peer repaired after every call, the only
        // faults left are plan entries, and they still fire on their own
        // call numbers.
        for _ in 0..8 {
            real.heal_all();
            real.restore();
            model.partitions.clear();
            model.down = None;
            prop_assert_eq!(
                real.next_call_at(now),
                model.next_call_between(now, 0, 1),
                "drain call {}", model.calls
            );
        }
    }
}
