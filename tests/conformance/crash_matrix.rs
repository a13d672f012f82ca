//! Crash matrix: the server dies at every call index, on every world.
//!
//! Against a peer that crashes (and stays down) before call `k` of a
//! sequence, the client observes either the correct reply (calls before
//! the crash) or a typed `Disconnected`. Never a hang, never a panic, never
//! a torn reply. After an operator restart (`FaultInjector::restore`) the
//! same binding serves again.

use crate::worlds::*;
use flexrpc::prelude::*;

/// Crash the peer before call index `crash_at` of a 6-call sequence, for
/// every `crash_at` in `0..5` on every world: every earlier call echoes
/// correctly, every call during the outage fails `Disconnected` — and after
/// `restore()` the *same* binding echoes again. None of these calls sets a
/// deadline, so a `DeadlineExceeded` would be a fault too.
#[test]
fn crash_at_every_index_is_typed_on_every_transport() {
    for build in WORLDS {
        for crash_at in 0..5u32 {
            let mut w = build(HEALTHY);
            let case = format!("crash before call {crash_at} on {}", w.name);
            for i in 0..crash_at {
                let got = ping(&mut w.stub, i * 10).expect("pre-crash call succeeds");
                assert_eq!(got, i * 10 + 1, "{case}: wrong echo before the crash");
            }
            w.faults().on_next_call(Fault::Crash { restart_after_ns: None });
            // The crashed call and a follow-up during the outage: both must
            // fail *typed* — no hang, no panic, no stale bytes decoded as a
            // reply.
            for _ in 0..2 {
                match ping(&mut w.stub, 77) {
                    Ok(v) => panic!("{case}: call during outage returned Ok({v})"),
                    Err(e) => assert_eq!(e.kind(), ErrorKind::Disconnected, "{case}: {e}"),
                }
            }
            // Operator restart: the binding itself was never torn down, so
            // it serves again without rebinding.
            w.faults().restore();
            let got = ping(&mut w.stub, 1000).expect("post-restore call succeeds");
            assert_eq!(got, 1001, "{case}: wrong echo after restore");
        }
    }
}

/// The deterministic corner on its own: the very first call crashes, on
/// every world, and after `restore()` the same binding serves.
#[test]
fn first_call_crash_is_typed_everywhere() {
    for build in WORLDS {
        let mut w = build(HEALTHY);
        w.faults().on_next_call(Fault::Crash { restart_after_ns: None });
        let err = ping(&mut w.stub, 3).expect_err("first call crashed");
        assert_eq!(err.kind(), ErrorKind::Disconnected, "on {}: {err}", w.name);
        w.faults().restore();
        assert_eq!(ping(&mut w.stub, 3).expect("restored"), 4, "on {}", w.name);
    }
}
