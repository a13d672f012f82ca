//! A 1 ms deadline against a stalled server returns
//! `ErrorKind::DeadlineExceeded` — never a hang — on every world.
//!
//! "Stalled" two ways. A `Fault::Delay` charges 10 ms of virtual time to
//! the call, so the deadline comparison is exact; every world carries it.
//! A handler that really blocks at a gate while another thread advances
//! the sim clock past the deadline runs where the deadline can fire while
//! the handler is stuck.

use crate::worlds::*;
use flexrpc::prelude::*;
use std::time::Duration;

const STALL_NS: u64 = 10_000_000; // 10 ms of virtual time
const DEADLINE: Duration = Duration::from_millis(1);

fn ping_within_deadline(stub: &mut ClientStub) -> Result<u32, RpcError> {
    call(stub, "ping", 41, &CallOptions::default().deadline(DEADLINE))
}

/// The scenario on one world: a 10 ms delay on every world, and a blocked
/// handler where the world can interrupt one. Each world runs it as a test
/// named after it, below; a world added to `WORLDS` gets one more.
fn deadline_vs_stalled_server(build: fn(Serve) -> World) {
    let mut w = build(HEALTHY);
    let case = format!("a 10 ms delay on {}", w.name);
    w.faults().on_next_call(Fault::Delay(STALL_NS));
    let err = ping_within_deadline(&mut w.stub).expect_err(&case);
    assert_eq!(err.kind(), ErrorKind::DeadlineExceeded, "{case}: {err}");
    // Control: with the stall spent, the same deadline admits the call.
    assert_eq!(ping_within_deadline(&mut w.stub), Ok(42), "{case}: after");

    let stall = Arc::new(Stall::default());
    let mut w = build(stalled(&stall));
    if let Err(reason) = w.interrupts_a_stall {
        skip("a blocked handler against a deadline", w.name, reason);
        return;
    }
    let case = format!("a blocked handler on {}", w.name);
    // Another thread plays "time passes while the server is stuck": once
    // the handler is inside — so the call has fixed its deadline — it
    // advances the sim clock past it.
    let clock = Arc::clone(&w.clock);
    let held = Arc::clone(&stall);
    let time_passes = std::thread::spawn(move || {
        held.wait_held();
        clock.advance(Duration::from_millis(2));
    });
    let err = ping_within_deadline(&mut w.stub).expect_err(&case);
    assert_eq!(err.kind(), ErrorKind::DeadlineExceeded, "{case}: {err}");
    // Only now may the handler finish, so the reply can only have come
    // too late; and no worker holds the gate when the engine shuts down.
    stall.release();
    time_passes.join().expect("the clock thread");
}

#[test]
fn loopback_deadline_vs_stalled_server() {
    deadline_vs_stalled_server(loopback);
}

#[test]
fn kernel_ipc_deadline_vs_stalled_server() {
    deadline_vs_stalled_server(kernel);
}

#[test]
fn sun_rpc_deadline_vs_stalled_server() {
    deadline_vs_stalled_server(sunrpc);
}

#[test]
fn engine_connection_deadline_vs_stalled_server() {
    deadline_vs_stalled_server(engine);
}

#[test]
fn engine_net_deadline_vs_stalled_server() {
    deadline_vs_stalled_server(engine_net);
}

/// One test per world: a world in `WORLDS` without its test above fails here.
#[test]
fn every_world_has_a_deadline_test() {
    let covered = ["loopback", "kernel", "sunrpc", "engine", "engine_net"];
    for build in WORLDS {
        let w = build(HEALTHY);
        assert!(covered.contains(&w.name), "no deadline test runs on {}", w.name);
    }
}
