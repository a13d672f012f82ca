//! Retry policy acceptance on every world: transient faults are absorbed,
//! permanent failures are not papered over, and the license to retry at
//! all comes from the PDL's `[idempotent]` declaration (`peek` has it,
//! `ping` does not) — checked before anything is sent.

use crate::worlds::*;
use flexrpc::prelude::*;
use proptest::prelude::*;
use std::time::Duration;

fn retrying_options() -> CallOptions {
    CallOptions::default().retry(RetryPolicy::new(3).backoff(Duration::from_millis(1)).seed(7))
}

#[test]
fn transient_faults_are_absorbed_by_the_policy() {
    for build in WORLDS {
        let mut w = build(HEALTHY);
        let name = w.name;
        // Two consecutive drops: attempts 1 and 2 fail, attempt 3 delivers.
        // A third drop waits for the fourth send.
        w.faults().on_next_call(Fault::Drop);
        w.faults().on_nth_call(1, Fault::Drop);
        w.faults().on_nth_call(3, Fault::Drop);
        assert_eq!(call(&mut w.stub, "peek", 41, &retrying_options()), Ok(42), "on {name}");
        assert_eq!(w.executions(), 1, "on {name}: the dropped sends executed nothing");
        // The retried call took exactly three sends: the next one is the
        // fourth.
        let err = ping(&mut w.stub, 41).expect_err("the fourth send is dropped");
        assert_eq!(err.kind(), ErrorKind::Retryable, "on {name}: {err}");
        assert_eq!(w.executions(), 1, "on {name}");
    }
}

#[test]
fn permanent_failures_are_not_retried() {
    for build in WORLDS {
        let mut w = build(STATUS_13);
        let name = w.name;
        let err = call(&mut w.stub, "peek", 41, &retrying_options()).expect_err("fails");
        assert_eq!(err.kind(), ErrorKind::Fatal, "on {name}: {err}");
        assert_eq!(w.executions(), 1, "on {name}: a non-retryable failure is sent exactly once");
    }
}

#[test]
fn retry_without_idempotent_declaration_is_refused_before_sending() {
    for build in WORLDS {
        let mut w = build(HEALTHY);
        let name = w.name;
        // A drop for the first send that reaches the transport.
        w.faults().on_next_call(Fault::Drop);
        // `ping` carries no `[idempotent]`: call_with refuses the retry
        // policy before the first send.
        let err = call(&mut w.stub, "ping", 41, &retrying_options()).expect_err("refused");
        assert_eq!(err.kind(), ErrorKind::ContractViolation, "on {name}: {err}");
        // The drop is still waiting: the refused call sent nothing.
        let err = ping(&mut w.stub, 41).expect_err("the first send is dropped");
        assert_eq!(err.kind(), ErrorKind::Retryable, "on {name}: {err}");
        assert_eq!(w.executions(), 0, "on {name}: nothing reached the server");
    }
}

/// The stub's retry to an engine: the request is dropped in transit, the
/// backoff is spent on the world's sim clock, and the resend executes once.
/// The license is the stub's too: without `[idempotent]` the same options
/// send nothing.
#[test]
fn stub_retry_resends_a_request_dropped_on_the_way_to_an_engine() {
    let policy = RetryPolicy::new(3).backoff(Duration::from_millis(1)).seed(9);
    let options = CallOptions::default().retry(policy.clone());
    for build in WORLDS {
        let mut w = build(HEALTHY);
        let name = w.name;
        if w.engine.is_none() {
            skip("a stub retry to an engine", name, "no engine serves this world");
            continue;
        }
        w.faults().on_next_call(Fault::Drop);
        let before = w.clock.now_ns();
        assert_eq!(call(&mut w.stub, "peek", 41, &options), Ok(42), "on {name}");
        assert!(
            w.clock.now_ns() - before >= policy.backoff_ns(1),
            "on {name}: the first backoff was spent on the world's sim clock"
        );
        assert_eq!(w.executions(), 1, "on {name}: the dropped request executed nothing");

        let sent = w.sun.as_ref().map(|link| link.net.stats().messages.get());
        w.faults().on_next_call(Fault::Drop);
        let err = call(&mut w.stub, "ping", 41, &options).expect_err("refused");
        assert_eq!(err.kind(), ErrorKind::ContractViolation, "on {name}: {err}");
        let now_sent = w.sun.as_ref().map(|link| link.net.stats().messages.get());
        assert_eq!(now_sent, sent, "on {name}: refused before anything was sent");
        let err = ping(&mut w.stub, 41).expect_err("the drop is still waiting");
        assert_eq!(err.kind(), ErrorKind::Retryable, "on {name}: {err}");
        assert_eq!(w.executions(), 1, "on {name}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any seed, the jittered backoff schedule is a pure function of
    /// the seed: two policies built alike agree on every attempt, and the
    /// values respect the base/cap envelope (jitter adds at most half).
    #[test]
    fn retry_jitter_is_deterministic_per_seed(seed in any::<u64>(), attempts in 1u32..12) {
        let a = RetryPolicy::new(12).backoff(Duration::from_micros(100)).seed(seed);
        let b = RetryPolicy::new(12).backoff(Duration::from_micros(100)).seed(seed);
        for n in 1..=attempts {
            let x = a.backoff_ns(n);
            prop_assert_eq!(x, b.backoff_ns(n), "same seed, same schedule");
            let base = 100_000u64.saturating_mul(1 << (n - 1).min(32)).min(100_000_000);
            prop_assert!(x >= base && x < base + base / 2 + 1, "envelope: {} for base {}", x, base);
        }
    }
}
