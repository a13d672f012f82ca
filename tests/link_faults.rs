//! Faults on every transport: the whole `Fault` × transport × call-shape
//! matrix in one table, then the stateful link faults in detail.
//!
//! Every transport passes each message through the one fault gate
//! (`FaultInjector::gate`), so a fault means the same thing everywhere: a
//! lost message executes nothing and surfaces as the same `ErrorKind` on a
//! call and as silence on a `[oneway]` send; `Close` executes once and
//! loses the reply; `Duplicate` executes twice (no reply cache here);
//! `Delay` and `SlowLink` cost sim time, not messages. A partition severs
//! the link while both endpoints stay alive and heals once sim time passes
//! the heal point; a slow link costs a multiple of the healthy transfer
//! time. Covered: loopback, kernel IPC, Sun RPC (single-call `SunRpc` and
//! the batched `SunRpcPipeline`), and the engine's same-domain connection.

use flexrpc::clock::{Disconnect, SimClock};
use flexrpc::core::ir::{Operation, Param, ParamDir, Type};
use flexrpc::kernel::{Kernel, NameMode};
use flexrpc::net::sunrpc::AcceptStat;
use flexrpc::net::{NetError, SimNet};
use flexrpc::prelude::*;
use flexrpc::runtime::transport::{connect_kernel, serve_on_kernel, serve_on_net, SunRpc};
use flexrpc::runtime::ServerCall;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// `ping` is a unary call, `note` its `[oneway]` twin, `peek` a `ping`
/// declared `[idempotent]`; `sum` and `hash` are `ping` and `peek` with a
/// 16-byte fixed opaque result.
fn echo_interface() -> (flexrpc::core::ir::Module, InterfacePresentation) {
    let (mut m, pdl) = corba::parse_annotated(
        "echo",
        r#"
        interface Echo {
            unsigned long ping(in unsigned long x);
            oneway void note(in unsigned long x);
            [idempotent] unsigned long peek(in unsigned long x);
        };
        "#,
    )
    .expect("IDL parses");
    // CORBA IDL spells no fixed-length opaque: the digest ops join the IR
    // directly.
    for name in ["sum", "hash"] {
        let x = Param::new("x", ParamDir::In, Type::U32);
        let digest = Type::Array(Box::new(Type::Octet), 16);
        m.interfaces[0].ops.push(Operation::new(name, vec![x], digest));
    }
    let iface = m.interface("Echo").expect("declared");
    let base = InterfacePresentation::default_for(&m, iface).expect("defaults");
    let mut pres = apply_pdl(&m, iface, &base, &pdl).expect("annotations apply");
    pres.ops.get_mut("hash").expect("declared").idempotent = true;
    (m, pres)
}

fn compiled() -> CompiledInterface {
    let (m, pres) = echo_interface();
    CompiledInterface::compile(&m, m.interface("Echo").expect("declared"), &pres).expect("compiles")
}

/// What a world's server does: the work function its unary ops run, and
/// whether it keeps a reply cache.
#[derive(Clone, Copy)]
struct Serve {
    work: fn(&mut ServerCall<'_, '_>) -> u32,
    reply_cache: bool,
}

/// Answers `x + 1` (on the `u32` ops), keeps no reply cache.
const HEALTHY: Serve = Serve {
    work: |call| {
        let x = call.u32("x").expect("x");
        call.set("return", Value::U32(x.wrapping_add(1))).expect("return");
        0
    },
    reply_cache: false,
};

/// A work function's deterministic failures. The handler runs, then its
/// reply cannot be marshalled: a string in the `u32` return slot, or (on
/// `sum` and `hash`) 3 bytes in the 16-byte one. The reply cache is there
/// to show it records nothing a resend could replay.
const BROKEN: Serve = Serve {
    work: |call| {
        call.set("return", Value::Str("not a number".into())).expect("return");
        0
    },
    reply_cache: true,
};
const MIS_SIZED: Serve = Serve {
    work: |call| {
        call.set("return", Value::Bytes(vec![7; 3])).expect("return");
        0
    },
    reply_cache: true,
};

/// A work function that reads a slot its operation does not have: the
/// lookup fails typed, and the work function answers with status 1 (2 had
/// the lookup failed any other way), which a presentation without
/// `[comm_status]` raises as `Remote`.
const UNKNOWN_SLOT: Serve = Serve {
    work: |call| match call.u32("y") {
        Err(RpcError::NoSlot(name)) if name == "y" => 1,
        _ => 2,
    },
    reply_cache: true,
};

const REPLY_TTL: Duration = Duration::from_secs(5);

/// Registers every handler; every execution of any bumps `executions`.
fn wire_handlers(
    srv: &mut ServerInterface,
    executions: &Arc<AtomicU64>,
    work: fn(&mut ServerCall<'_, '_>) -> u32,
) {
    for op in ["ping", "peek", "sum", "hash"] {
        let ran = Arc::clone(executions);
        srv.on(op, move |call| {
            ran.fetch_add(1, Ordering::SeqCst);
            work(call)
        })
        .expect("registers");
    }
    let ran = Arc::clone(executions);
    srv.on("note", move |_| {
        ran.fetch_add(1, Ordering::SeqCst);
        0
    })
    .expect("registers");
}

fn echo_server(
    executions: &Arc<AtomicU64>,
    serve: Serve,
    clock: &Arc<SimClock>,
) -> Arc<Mutex<ServerInterface>> {
    let mut srv = ServerInterface::new(compiled(), WireFormat::Cdr);
    wire_handlers(&mut srv, executions, serve.work);
    if serve.reply_cache {
        srv.set_reply_cache(ReplyCache::new(Arc::clone(clock), REPLY_TTL));
    }
    Arc::new(Mutex::new(srv))
}

/// One stub-addressable binding plus the handles a fault test needs: a way
/// to arm the injector the transport consults, the clock whose passage
/// heals a cut, the handler-execution count, and a way to wait out work
/// the transport runs behind the caller's back.
struct World {
    name: &'static str,
    stub: ClientStub,
    arm: Box<dyn Fn(Fault)>,
    clock: Arc<SimClock>,
    executions: Arc<AtomicU64>,
    quiesce: Box<dyn Fn()>,
}

fn loopback_world(serve: Serve) -> World {
    let executions = Arc::new(AtomicU64::new(0));
    let clock = SimClock::new();
    let transport =
        Loopback::with_clock(echo_server(&executions, serve, &clock), Arc::clone(&clock));
    let faults = Arc::clone(transport.faults());
    let stub = ClientStub::new(compiled(), WireFormat::Cdr, Box::new(transport));
    let arm = Box::new(move |f| faults.on_next_call(f));
    World { name: "loopback", stub, arm, clock, executions, quiesce: Box::new(|| {}) }
}

fn kernel_world(serve: Serve) -> World {
    let executions = Arc::new(AtomicU64::new(0));
    let k = Kernel::new();
    let client_task = k.create_task("client", 4096).expect("task");
    let server_task = k.create_task("server", 4096).expect("task");
    let server = echo_server(&executions, serve, k.clock());
    let sig = server.lock().compiled().signature.hash();
    let port =
        serve_on_kernel(&k, server_task, server, Trust::None, NameMode::Unique).expect("serves");
    let send = k.extract_send_right(server_task, port, client_task).expect("send right");
    let transport =
        connect_kernel(&k, client_task, send, sig, Trust::None, NameMode::Unique).expect("binds");
    let clock = Arc::clone(k.clock());
    let stub = ClientStub::new(compiled(), WireFormat::Cdr, Box::new(transport));
    let arm = Box::new(move |f| k.faults().on_next_call(f));
    World { name: "kernel", stub, arm, clock, executions, quiesce: Box::new(|| {}) }
}

fn sunrpc_world(serve: Serve) -> World {
    let executions = Arc::new(AtomicU64::new(0));
    let net = SimNet::new();
    let ch = net.add_host("client");
    let sh = net.add_host("server");
    serve_on_net(&net, sh, echo_server(&executions, serve, net.clock()), 500_001, 1)
        .expect("serves");
    let transport = SunRpc::new(Arc::clone(&net), ch, sh, 500_001, 1);
    let clock = Arc::clone(net.clock());
    let stub = ClientStub::new(compiled(), WireFormat::Cdr, Box::new(transport));
    let arm = Box::new(move |f| net.faults().on_next_call(f));
    World { name: "sunrpc", stub, arm, clock, executions, quiesce: Box::new(|| {}) }
}

/// The engine's same-domain connection. A `[oneway]` send (and the shadow
/// of a duplicated call) runs on a worker after the submitter returned, so
/// `quiesce` waits until nothing is queued or executing.
fn engine_world(serve: Serve) -> World {
    let executions = Arc::new(AtomicU64::new(0));
    let mut engine = Engine::builder().workers(2);
    if serve.reply_cache {
        engine = engine.at_most_once(REPLY_TTL);
    }
    let engine = engine.build();
    let (m, pres) = echo_interface();
    let ran = Arc::clone(&executions);
    engine
        .register_service("echo", m, "Echo", pres, WireFormat::Cdr, move |srv| {
            wire_handlers(srv, &ran, serve.work)
        })
        .expect("service registers");
    let conn = engine.connect("echo").establish().expect("connects");
    let clock = Arc::clone(engine.clock());
    let stub = ClientStub::new(compiled(), WireFormat::Cdr, Box::new(conn));
    let (e1, e2) = (Arc::clone(&engine), engine);
    World {
        name: "engine",
        stub,
        arm: Box::new(move |f| e1.faults().on_next_call(f)),
        clock,
        executions,
        quiesce: Box::new(move || {
            while e2.stats().in_flight != 0 {
                std::thread::yield_now();
            }
        }),
    }
}

const WORLDS: [fn(Serve) -> World; 4] = [loopback_world, kernel_world, sunrpc_world, engine_world];

fn worlds() -> Vec<World> {
    WORLDS.iter().map(|build| build(HEALTHY)).collect()
}

fn ping(stub: &mut ClientStub, x: u32) -> Result<u32, RpcError> {
    let mut frame = stub.new_frame("ping").expect("frame");
    frame[0] = Value::U32(x);
    stub.call_with("ping", &mut frame, &CallOptions::default())?;
    Ok(frame[1].as_u32().expect("return"))
}

fn note(stub: &mut ClientStub, x: u32) -> Result<(), RpcError> {
    let mut frame = stub.new_frame("note").expect("frame");
    frame[0] = Value::U32(x);
    stub.notify_with("note", &mut frame, &CallOptions::default())
}

/// Long enough to outlast the wire time a failed attempt itself charges
/// (the request leg transmits into the void).
const OUTAGE_NS: u64 = 500_000_000;

/// The whole matrix, one row per `Fault` variant: what a call returns and
/// how many times the handler runs — the same on every transport, for a
/// call and for a `[oneway]` send alike, except that a send never
/// surfaces a lost message (it has no reply to miss).
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
                (w.arm)(fault);
                if oneway {
                    note(&mut w.stub, 7).unwrap_or_else(|e| panic!("{case}: surfaced {e}"));
                } else {
                    let got = ping(&mut w.stub, 7).map_err(|e| e.kind());
                    assert_eq!(got, call_fails_as.map_or(Ok(8), Err), "{case}");
                }
                (w.quiesce)();
                assert_eq!(w.executions.load(Ordering::SeqCst), executions, "{case}: executions");
                // One-shot or self-healing: past the outage the same
                // binding serves again, exactly once per call.
                w.clock.advance_ns(OUTAGE_NS + OUTAGE_NS / 5);
                assert_eq!(ping(&mut w.stub, 1).expect("binding serves again"), 2, "{case}");
                assert_eq!(w.executions.load(Ordering::SeqCst), executions + 1, "{case}: after");
            }
        }
    }
}

/// A work function's deterministic failure reads `Fatal` on every
/// transport, and no transport resends it: the handler runs once under a
/// retry policy, whether the license is the op's `[idempotent]` or the
/// binding's at-most-once (a failed dispatch records nothing in the reply
/// cache, so a tagged resend would run the handler again). One row per
/// cause, each with its `[idempotent]` op and its plain one.
#[test]
fn a_failed_dispatch_is_fatal_and_runs_once_on_every_transport() {
    let retry = CallOptions::default().retry(RetryPolicy::new(3));
    let causes = [
        ("a string in a u32 result", BROKEN, "peek", "ping", None),
        ("3 bytes in a 16-byte fixed opaque result", MIS_SIZED, "hash", "sum", None),
        ("an unknown slot name", UNKNOWN_SLOT, "peek", "ping", Some(RpcError::Remote(1))),
    ];
    for (cause, serve, idempotent, plain, same_everywhere) in causes {
        for build in WORLDS {
            for (op, at_most_once) in [(idempotent, false), (plain, true)] {
                let mut w = build(serve);
                let case = format!("{cause}: {op} on {} (at-most-once: {at_most_once})", w.name);
                if at_most_once {
                    w.stub.enable_at_most_once();
                }
                let mut frame = w.stub.new_frame(op).expect("frame");
                frame[0] = Value::U32(7);
                let err = w.stub.call_with(op, &mut frame, &retry).expect_err(&case);
                assert_eq!(err.kind(), ErrorKind::Fatal, "{case}: {err}");
                if let Some(expected) = &same_everywhere {
                    assert_eq!(&err, expected, "{case}");
                }
                (w.quiesce)();
                assert_eq!(w.executions.load(Ordering::SeqCst), 1, "{case}: executions");
            }
        }
    }
}

/// A Sun RPC server's refusal keeps its stat and is not retried: an
/// `[idempotent]` call to a program the host does not serve is sent once
/// under a retry policy, executes nothing, and reads `Fatal`.
#[test]
fn a_sun_rpc_refusal_is_typed_fatal_and_sent_once() {
    let executions = Arc::new(AtomicU64::new(0));
    let net = SimNet::new();
    let ch = net.add_host("client");
    let sh = net.add_host("server");
    serve_on_net(&net, sh, echo_server(&executions, HEALTHY, net.clock()), 500_001, 1)
        .expect("serves");
    let transport = SunRpc::new(Arc::clone(&net), ch, sh, 500_002, 1);
    let mut stub = ClientStub::new(compiled(), WireFormat::Cdr, Box::new(transport));
    let mut frame = stub.new_frame("peek").expect("frame");
    frame[0] = Value::U32(7);
    let retry = CallOptions::default().retry(RetryPolicy::new(3));
    let err = stub.call_with("peek", &mut frame, &retry).expect_err("program not served");
    assert!(matches!(err, RpcError::Net(NetError::Refused(AcceptStat::ProgUnavail))), "{err}");
    assert_eq!(err.kind(), ErrorKind::Fatal);
    assert_eq!(net.stats().messages.get(), 1, "sent once");
    assert_eq!(executions.load(Ordering::SeqCst), 0);
}

/// A partition is a typed, retryable outage with state: the cut persists
/// across calls (unlike one-shot drops) and heals itself when sim time
/// passes the deadline — no operator `restore()` required.
#[test]
fn partition_severs_then_heals_on_stub_transports() {
    for mut w in worlds() {
        let name = w.name;
        assert_eq!(ping(&mut w.stub, 1).expect("healthy link"), 2, "on {name}");
        (w.arm)(Fault::Partition {
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
    for mut w in worlds() {
        let name = w.name;
        assert_eq!(ping(&mut w.stub, 1).expect("healthy link"), 2, "on {name}");
        let healthy_ns = w.clock.now_ns();
        (w.arm)(Fault::SlowLink { factor: 8 });
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

/// The second Sun RPC path: a batched pipeline against an engine-hosted
/// acceptor. A partition fails the whole flush typed; after the heal the
/// resubmitted batch completes; a slow-link window stretches the flush's
/// wire time by exactly its factor.
#[test]
fn pipeline_flush_sees_partitions_and_slow_links() {
    let engine = Engine::builder().workers(2).build();
    let (m, pres) = echo_interface();
    let executions = Arc::new(AtomicU64::new(0));
    engine
        .register_service("echo", m, "Echo", pres.clone(), WireFormat::Cdr, move |srv| {
            wire_handlers(srv, &executions, HEALTHY.work)
        })
        .expect("service registers");
    let net = SimNet::new();
    let sh = net.add_host("server");
    let ch = net.add_host("client");
    flexrpc::engine::expose_on_net(&engine, &net, sh, "echo", 700, 1, ClientInfo::of(&pres))
        .expect("exposes");
    let mut pipe = flexrpc::engine::SunRpcPipeline::new(Arc::clone(&net), ch, sh, 700, 1);

    let args = {
        let mut w = flexrpc::runtime::wire::AnyWriter::new(WireFormat::Cdr);
        w.put_u32(41);
        w.into_bytes()
    };

    // Healthy flush, and its wire cost as the slow-link baseline.
    let wire_before = net.wire_ns();
    pipe.submit(0, &args);
    let replies = pipe.flush().expect("healthy flush");
    assert_eq!(replies.len(), 1);
    let healthy_wire = net.wire_ns() - wire_before;

    // Sever the client↔server pair: the flush dies typed, nothing executes.
    net.faults().partition(ch.raw(), sh.raw(), net.clock().now_ns() + 500_000_000);
    pipe.submit(0, &args);
    let err = pipe.flush().expect_err("flush crossed a severed link");
    assert_eq!(err, NetError::Disconnected(sh, Disconnect::LinkCut), "typed outage");
    assert_eq!(net.host_name(sh).expect("added"), "server", "the outage names its host");

    // Sim time heals the cut; the resubmitted batch goes through.
    net.clock().advance_ns(600_000_000);
    pipe.submit(0, &args);
    assert_eq!(pipe.flush().expect("healed").len(), 1);

    // A slow-link window stretches both wire legs of the flush 4x (the
    // server's own processing time, folded into wire_ns, is unscaled).
    let server = flexrpc::net::NetConfig::default().server_ns;
    let wire_before = net.wire_ns();
    net.faults().set_slow_link(4, net.clock().now_ns() + 1_000_000_000);
    pipe.submit(0, &args);
    assert_eq!(pipe.flush().expect("degraded but alive").len(), 1);
    assert_eq!(net.wire_ns() - wire_before - server, (healthy_wire - server) * 4);
    net.faults().heal_all();
    engine.shutdown();
}
