//! Faults on every world: the whole `Fault` × world × call-shape matrix in
//! one table, then the stateful link faults in detail.
//!
//! Every transport passes each message through the one fault gate
//! (`FaultInjector::gate`), so a fault means the same thing everywhere: a
//! lost message executes nothing and surfaces as the same `ErrorKind` on a
//! call and as silence on a `[oneway]` send; `Close` executes once and
//! loses the reply; `Duplicate` executes twice (no reply cache here);
//! `Delay` and `SlowLink` cost sim time, not messages. A partition severs
//! the link while both endpoints stay alive and heals once sim time passes
//! the heal point; a slow link costs a multiple of the healthy transfer
//! time.

use crate::worlds::*;
use flexrpc::clock::Disconnect;
use flexrpc::engine::SunRpcPipeline;
use flexrpc::net::sunrpc::AcceptStat;
use flexrpc::net::{NetConfig, NetError};
use flexrpc::prelude::*;
use flexrpc::runtime::transport::SunRpc;
use flexrpc::runtime::wire::AnyWriter;

/// Long enough to outlast the wire time a failed attempt itself charges
/// (the request leg transmits into the void).
const OUTAGE_NS: u64 = 500_000_000;

/// The whole matrix, one row per `Fault` variant: what a call returns and
/// how many times the handler runs — the same on every world, for a call
/// and for a `[oneway]` send alike, except that a send never surfaces a
/// lost message (it has no reply to miss).
#[test]
fn every_fault_means_the_same_on_every_transport_and_call_shape() {
    let any = FaultInjector::ANY;
    let matrix: [(Fault, Option<ErrorKind>, u64); 7] = [
        (Fault::Drop, Some(ErrorKind::Retryable), 0),
        (Fault::Delay(5_000), None, 1),
        (Fault::Duplicate, None, 2),
        (Fault::Crash { restart_after_ns: Some(OUTAGE_NS) }, Some(ErrorKind::Disconnected), 0),
        (Fault::Close, Some(ErrorKind::Disconnected), 1),
        (
            Fault::Partition { a: any, b: any, heal_after_ns: OUTAGE_NS },
            Some(ErrorKind::Disconnected),
            0,
        ),
        (Fault::SlowLink { factor: 8 }, None, 1),
    ];
    for (fault, call_fails_as, executions) in matrix {
        for build in WORLDS {
            for oneway in [false, true] {
                let mut w = build(HEALTHY);
                let case =
                    format!("{fault:?} on {} ({})", w.name, ["call", "oneway"][oneway as usize]);
                w.faults().on_next_call(fault);
                if oneway {
                    note(&mut w.stub, 7).unwrap_or_else(|e| panic!("{case}: surfaced {e}"));
                } else {
                    let got = ping(&mut w.stub, 7).map_err(|e| e.kind());
                    assert_eq!(got, call_fails_as.map_or(Ok(8), Err), "{case}");
                }
                w.quiesce();
                assert_eq!(w.executions(), executions, "{case}: executions");
                // One-shot or self-healing: past the outage the same
                // binding serves again, exactly once per call.
                w.clock.advance_ns(OUTAGE_NS + OUTAGE_NS / 5);
                assert_eq!(ping(&mut w.stub, 1).expect("binding serves again"), 2, "{case}");
                assert_eq!(w.executions(), executions + 1, "{case}: after");
            }
        }
    }
}

/// A work function's deterministic failure reads `Fatal` on every world,
/// and no world resends it: the handler runs once under a retry policy,
/// whether the license is the op's `[idempotent]` or the binding's
/// at-most-once (a failed dispatch records nothing in the reply cache, so
/// a tagged resend would run the handler again). One row per cause, each
/// with its `[idempotent]` op and its plain one. A failed dispatch reads
/// as the handler's own cause where the world's wire carries it, and as the
/// world's declared flattening where it does not; a status reads the same
/// everywhere.
#[test]
fn a_failed_dispatch_is_fatal_and_runs_once_on_every_transport() {
    let retry = CallOptions::default().retry(RetryPolicy::new(3));
    let wrong_kind = RpcError::SlotKind { slot: 1, expected: "u32", found: "str" };
    let mis_sized = RpcError::FixedLen { slot: 1, expected: 16, found: 3 };
    // (cause, server, [idempotent] op, plain op, its own error, whether
    // it is a failed dispatch a wire may flatten)
    let causes = [
        ("a string in a u32 result", BROKEN, "peek", "ping", wrong_kind, true),
        ("3 bytes in a 16-byte fixed opaque result", MIS_SIZED, "hash", "sum", mis_sized, true),
        ("an unknown slot name", UNKNOWN_SLOT, "peek", "ping", RpcError::Remote(1), false),
    ];
    for (cause, serve, idempotent, plain, own, flattenable) in causes {
        for build in WORLDS {
            for (op, at_most_once) in [(idempotent, false), (plain, true)] {
                let mut w = build(serve.clone());
                let case = format!("{cause}: {op} on {} (at-most-once: {at_most_once})", w.name);
                if at_most_once {
                    w.stub.enable_at_most_once();
                }
                let err = call(&mut w.stub, op, 7, &retry).expect_err(&case);
                assert_eq!(err.kind(), ErrorKind::Fatal, "{case}: {err}");
                let expected = match &w.failed_dispatch_reads {
                    Some(flattened) if flattenable => flattened,
                    _ => &own,
                };
                assert_eq!(&err, expected, "{case}");
                w.quiesce();
                assert_eq!(w.executions(), 1, "{case}: executions");
            }
        }
    }
}

/// A Sun RPC server's refusal keeps its stat and is not retried: an
/// `[idempotent]` call to a program the host does not serve is sent once
/// under a retry policy, executes nothing, and reads `Fatal`.
#[test]
fn a_sun_rpc_refusal_is_typed_fatal_and_sent_once() {
    for build in WORLDS {
        let w = build(HEALTHY);
        let Some(link) = &w.sun else {
            skip("a Sun RPC refusal", w.name, "no Sun RPC server to refuse");
            continue;
        };
        let unserved = SunRpc::new(Arc::clone(&link.net), link.client, link.server, PROG + 1, VERS);
        let mut stub = ClientStub::new(compiled(), WireFormat::Cdr, Box::new(unserved));
        let retry = CallOptions::default().retry(RetryPolicy::new(3));
        let err = call(&mut stub, "peek", 7, &retry).expect_err("program not served");
        let case = format!("on {}: {err}", w.name);
        assert!(matches!(err, RpcError::Net(NetError::Refused(AcceptStat::ProgUnavail))), "{case}");
        assert_eq!(err.kind(), ErrorKind::Fatal, "{case}");
        assert_eq!(link.net.stats().messages.get(), 1, "{case}: sent once");
        assert_eq!(w.executions(), 0, "{case}");
    }
}

/// A partition is a typed, retryable outage with state: the cut persists
/// across calls (unlike one-shot drops) and heals itself when sim time
/// passes the deadline — no operator `restore()` required.
#[test]
fn partition_severs_then_heals_on_stub_transports() {
    for build in WORLDS {
        let mut w = build(HEALTHY);
        let name = w.name;
        assert_eq!(ping(&mut w.stub, 1).expect("healthy link"), 2, "on {name}");
        w.faults().on_next_call(Fault::Partition {
            a: FaultInjector::ANY,
            b: FaultInjector::ANY,
            heal_after_ns: OUTAGE_NS,
        });
        for i in 0..2 {
            let err = match ping(&mut w.stub, 7) {
                Ok(v) => panic!("on {name}, call {i}: crossed a severed link, got Ok({v})"),
                Err(e) => e,
            };
            assert_eq!(
                err.kind(),
                ErrorKind::Disconnected,
                "on {name}, call {i} during the cut: {err}"
            );
        }
        w.clock.advance_ns(OUTAGE_NS + OUTAGE_NS / 5);
        assert_eq!(ping(&mut w.stub, 3).expect("healed link"), 4, "on {name}");
    }
}

/// A slow link degrades without severing: the call completes correctly
/// and the sim clock shows the stretched transfer.
#[test]
fn slow_link_degrades_without_severing_on_stub_transports() {
    for build in WORLDS {
        let mut w = build(HEALTHY);
        let name = w.name;
        assert_eq!(ping(&mut w.stub, 1).expect("healthy link"), 2, "on {name}");
        let healthy_ns = w.clock.now_ns();
        w.faults().on_next_call(Fault::SlowLink { factor: 8 });
        assert_eq!(ping(&mut w.stub, 5).expect("degraded but alive"), 6, "on {name}");
        let slowed = w.clock.now_ns() - healthy_ns;
        assert!(slowed > 0, "on {name}: the slow link charged no sim time");
        // One-shot: the next call pays the healthy price again.
        let before = w.clock.now_ns();
        assert_eq!(ping(&mut w.stub, 9).expect("recovered"), 10, "on {name}");
        assert!(
            w.clock.now_ns() - before < slowed,
            "on {name}: the slowdown leaked past its one call"
        );
    }
}

/// The second Sun RPC client: a batched pipeline on the world's link. A
/// partition fails the whole flush typed; after the heal the resubmitted
/// batch completes; a slow-link window stretches the flush's wire time by
/// exactly its factor.
#[test]
fn pipeline_flush_sees_partitions_and_slow_links() {
    let args = {
        let mut w = AnyWriter::new(WireFormat::Cdr);
        w.put_u32(41);
        w.into_bytes()
    };
    for build in WORLDS {
        let w = build(HEALTHY);
        let Some(link) = &w.sun else {
            skip("a pipelined flush", w.name, "no Sun RPC link to pipeline on");
            continue;
        };
        let (net, ch, sh, name) = (&link.net, link.client, link.server, w.name);
        let mut pipe = SunRpcPipeline::new(Arc::clone(net), ch, sh, PROG, VERS);

        // Healthy flush, and its wire cost as the slow-link baseline.
        let wire_before = net.wire_ns();
        pipe.submit(0, &args);
        let replies = pipe.flush().expect("healthy flush");
        assert_eq!(replies.len(), 1, "on {name}");
        let healthy_wire = net.wire_ns() - wire_before;

        // Sever the client↔server pair: the flush dies typed.
        net.faults().partition(ch.raw(), sh.raw(), net.clock().now_ns() + 500_000_000);
        pipe.submit(0, &args);
        let err = pipe.flush().expect_err("flush crossed a severed link");
        assert_eq!(err, NetError::Disconnected(sh, Disconnect::LinkCut), "on {name}");
        assert_eq!(net.host_name(sh).expect("added"), "server", "the outage names its host");

        // Sim time heals the cut; the resubmitted batch goes through.
        net.clock().advance_ns(600_000_000);
        pipe.submit(0, &args);
        assert_eq!(pipe.flush().expect("healed").len(), 1, "on {name}");

        // A slow-link window stretches both wire legs of the flush 4x (the
        // server's own processing time, folded into wire_ns, is unscaled).
        let server = NetConfig::default().server_ns;
        let wire_before = net.wire_ns();
        net.faults().set_slow_link(4, net.clock().now_ns() + 1_000_000_000);
        pipe.submit(0, &args);
        assert_eq!(pipe.flush().expect("degraded but alive").len(), 1, "on {name}");
        let slowed = net.wire_ns() - wire_before - server;
        assert_eq!(slowed, (healthy_wire - server) * 4, "on {name}");
        net.faults().heal_all();
        assert_eq!(w.executions(), 3, "on {name}: the severed flush executed nothing");
    }
}
