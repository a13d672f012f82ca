//! The worlds every scenario runs on: one echo interface, one set of
//! server behaviours, and one builder per transport, each returning the same
//! [`World`]. A transport joins the harness by adding its builder to
//! [`WORLDS`]; every scenario then runs on it, or prints the declared reason
//! it cannot.

use flexrpc::clock::SimClock;
use flexrpc::core::ir::{Module, Operation, Param, ParamDir, Type};
use flexrpc::engine::expose_on_net;
use flexrpc::kernel::{Kernel, KernelError, NameMode};
use flexrpc::net::{HostId, NetError, SimNet};
use flexrpc::prelude::*;
use flexrpc::runtime::transport::{connect_kernel, serve_on_kernel, serve_on_net, SunRpc};
use flexrpc::runtime::ServerCall;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, PoisonError};
use std::time::Duration;

/// `ping` is a unary call, `note` its `[oneway]` twin, `peek` a `ping`
/// declared `[idempotent]`; `sum` and `hash` are `ping` and `peek` with a
/// 16-byte fixed opaque result.
pub fn echo_interface() -> (Module, InterfacePresentation) {
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

pub fn compiled() -> CompiledInterface {
    let (m, pres) = echo_interface();
    CompiledInterface::compile(&m, m.interface("Echo").expect("declared"), &pres).expect("compiles")
}

/// What a world's server does: the work function its unary ops run,
/// whether it keeps a reply cache, and a gate its unary handlers wait at
/// before working, if any.
#[derive(Clone)]
pub struct Serve {
    pub work: fn(&mut ServerCall<'_, '_>) -> u32,
    pub reply_cache: bool,
    pub stall: Option<Arc<Stall>>,
}

/// Answers `x + 1` (on the `u32` ops), keeps no reply cache.
pub const HEALTHY: Serve = Serve {
    work: |call| {
        let x = call.u32("x").expect("x");
        call.set("return", Value::U32(x.wrapping_add(1))).expect("return");
        0
    },
    reply_cache: false,
    stall: None,
};

/// A work function's deterministic failures. The handler runs, then its
/// reply cannot be marshalled: a string in the `u32` return slot, or (on
/// `sum` and `hash`) 3 bytes in the 16-byte one. The reply cache is there
/// to show it records nothing a resend could replay.
pub const BROKEN: Serve = Serve {
    work: |call| {
        call.set("return", Value::Str("not a number".into())).expect("return");
        0
    },
    reply_cache: true,
    stall: None,
};
pub const MIS_SIZED: Serve = Serve {
    work: |call| {
        call.set("return", Value::Bytes(vec![7; 3])).expect("return");
        0
    },
    reply_cache: true,
    stall: None,
};

/// A work function that reads a slot its operation does not have: the
/// lookup fails typed, and the work function answers with status 1 (2 had
/// the lookup failed any other way), which a presentation without
/// `[comm_status]` raises as `Remote`.
pub const UNKNOWN_SLOT: Serve = Serve {
    work: |call| match call.u32("y") {
        Err(RpcError::NoSlot(name)) if name == "y" => 1,
        _ => 2,
    },
    reply_cache: true,
    stall: None,
};

/// The server *answers* every call — with application status 13. That is
/// a delivered reply, not a transport fault; resending cannot help.
pub const STATUS_13: Serve = Serve { work: |_| 13, reply_cache: false, stall: None };

/// [`HEALTHY`], except that every unary handler first waits at `stall`: a
/// genuinely stalled server, not a virtual-time charge.
pub fn stalled(stall: &Arc<Stall>) -> Serve {
    Serve { stall: Some(Arc::clone(stall)), ..HEALTHY }
}

/// The gate a [`stalled`] server's handlers wait at. A handler marks
/// itself held before it waits, so a test orders its steps on
/// [`Stall::wait_held`] instead of on sleeps.
#[derive(Default)]
pub struct Stall {
    /// `(a handler is held, the gate is open)`.
    state: std::sync::Mutex<(bool, bool)>,
    changed: Condvar,
}

impl Stall {
    fn hold(&self) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.0 = true;
        self.changed.notify_all();
        drop(self.changed.wait_while(state, |s| !s.1).unwrap_or_else(PoisonError::into_inner));
    }

    /// Returns once a handler is waiting at the gate.
    pub fn wait_held(&self) {
        let state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        drop(self.changed.wait_while(state, |s| !s.0).unwrap_or_else(PoisonError::into_inner));
    }

    /// Opens the gate for every handler, now and later.
    pub fn release(&self) {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).1 = true;
        self.changed.notify_all();
    }
}

const REPLY_TTL: Duration = Duration::from_secs(5);

/// The Sun RPC program and version the Sun RPC worlds serve.
pub const PROG: u32 = 500_001;
pub const VERS: u32 = 1;

/// Registers every handler; every execution of any bumps `executions`.
fn wire_handlers(srv: &mut ServerInterface, executions: &Arc<AtomicU64>, serve: &Serve) {
    for op in ["ping", "peek", "sum", "hash"] {
        let (ran, serve) = (Arc::clone(executions), serve.clone());
        srv.on(op, move |call| {
            ran.fetch_add(1, Ordering::SeqCst);
            if let Some(stall) = &serve.stall {
                stall.hold();
            }
            (serve.work)(call)
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
    serve: &Serve,
    clock: &Arc<SimClock>,
) -> Arc<Mutex<ServerInterface>> {
    let mut srv = ServerInterface::new(compiled(), WireFormat::Cdr);
    wire_handlers(&mut srv, executions, serve);
    if serve.reply_cache {
        srv.set_reply_cache(ReplyCache::new(Arc::clone(clock), REPLY_TTL));
    }
    Arc::new(Mutex::new(srv))
}

/// An engine on two workers serving the echo interface as `"echo"`.
fn echo_engine(executions: &Arc<AtomicU64>, serve: &Serve) -> Arc<Engine> {
    let mut engine = Engine::builder().workers(2);
    if serve.reply_cache {
        engine = engine.at_most_once(REPLY_TTL);
    }
    let engine = engine.build();
    let (m, pres) = echo_interface();
    let (ran, serve) = (Arc::clone(executions), serve.clone());
    engine
        .register_service("echo", m, "Echo", pres, WireFormat::Cdr, move |srv| {
            wire_handlers(srv, &ran, &serve)
        })
        .expect("service registers");
    engine
}

/// Whatever owns the fault injector a world's transport consults.
trait Faults {
    fn injector(&self) -> &FaultInjector;
}

impl Faults for FaultInjector {
    fn injector(&self) -> &FaultInjector {
        self
    }
}

impl Faults for Kernel {
    fn injector(&self) -> &FaultInjector {
        self.faults()
    }
}

impl Faults for SimNet {
    fn injector(&self) -> &FaultInjector {
        self.faults()
    }
}

impl Faults for Engine {
    fn injector(&self) -> &FaultInjector {
        self.faults()
    }
}

/// The Sun RPC link a world's stub dials.
pub struct SunLink {
    pub net: Arc<SimNet>,
    pub client: HostId,
    pub server: HostId,
}

/// One stub-addressable binding plus the handles a scenario needs: the
/// injector the transport consults, the clock whose passage heals a cut,
/// the handler-execution count, and what the world declares it carries.
pub struct World {
    pub name: &'static str,
    pub stub: ClientStub,
    faults: Arc<dyn Faults>,
    pub clock: Arc<SimClock>,
    executions: Arc<AtomicU64>,
    /// The engine serving this world, if one does; dropping the world
    /// shuts it down.
    pub engine: Option<Arc<Engine>>,
    /// The Sun RPC link the stub dials, on the worlds that speak Sun RPC.
    pub sun: Option<SunLink>,
    /// What a failed dispatch reads as where the wire drops its typed
    /// cause; `None` where the handler's own cause crosses.
    pub failed_dispatch_reads: Option<RpcError>,
    /// `Ok` where a caller's deadline fires while the handler is still
    /// stalled; otherwise why it cannot.
    pub interrupts_a_stall: Result<(), &'static str>,
}

impl World {
    /// The injector this world's transport consults.
    pub fn faults(&self) -> &FaultInjector {
        self.faults.injector()
    }

    /// Waits out work the transport runs behind the caller's back: a
    /// `[oneway]` send (and the shadow of a duplicated call) runs on an
    /// engine worker after the submitter returned.
    pub fn quiesce(&self) {
        if let Some(engine) = &self.engine {
            while engine.stats().in_flight != 0 {
                std::thread::yield_now();
            }
        }
    }

    /// How many times any handler has run.
    pub fn executions(&self) -> u64 {
        self.executions.load(Ordering::SeqCst)
    }
}

const CALLER_THREAD: &str = "the handler runs on the caller's thread";

pub fn loopback(serve: Serve) -> World {
    let executions = Arc::new(AtomicU64::new(0));
    let clock = SimClock::new();
    let transport =
        Loopback::with_clock(echo_server(&executions, &serve, &clock), Arc::clone(&clock));
    let faults = Arc::clone(transport.faults());
    World {
        name: "loopback",
        stub: ClientStub::new(compiled(), WireFormat::Cdr, Box::new(transport)),
        faults,
        clock,
        executions,
        engine: None,
        sun: None,
        failed_dispatch_reads: None,
        interrupts_a_stall: Err(CALLER_THREAD),
    }
}

pub fn kernel(serve: Serve) -> World {
    let executions = Arc::new(AtomicU64::new(0));
    let k = Kernel::new();
    let client_task = k.create_task("client", 4096).expect("task");
    let server_task = k.create_task("server", 4096).expect("task");
    let server = echo_server(&executions, &serve, k.clock());
    let sig = server.lock().compiled().signature.hash();
    let port =
        serve_on_kernel(&k, server_task, server, Trust::None, NameMode::Unique).expect("serves");
    let send = k.extract_send_right(server_task, port, client_task).expect("send right");
    let transport =
        connect_kernel(&k, client_task, send, sig, Trust::None, NameMode::Unique).expect("binds");
    World {
        name: "kernel",
        stub: ClientStub::new(compiled(), WireFormat::Cdr, Box::new(transport)),
        clock: Arc::clone(k.clock()),
        faults: k,
        executions,
        engine: None,
        sun: None,
        failed_dispatch_reads: Some(RpcError::Kernel(KernelError::ServerFailure(1))),
        interrupts_a_stall: Err(CALLER_THREAD),
    }
}

/// A single-call `SunRpc` stub from `client` to `(PROG, VERS)` on
/// `server`; the caller registers what serves it there.
fn sun_world(name: &'static str, net: Arc<SimNet>, client: HostId, server: HostId) -> World {
    let transport = SunRpc::new(Arc::clone(&net), client, server, PROG, VERS);
    World {
        name,
        stub: ClientStub::new(compiled(), WireFormat::Cdr, Box::new(transport)),
        clock: Arc::clone(net.clock()),
        faults: Arc::clone(&net) as Arc<dyn Faults>,
        executions: Arc::new(AtomicU64::new(0)),
        engine: None,
        sun: Some(SunLink { net, client, server }),
        failed_dispatch_reads: Some(RpcError::Net(NetError::ServiceFailure)),
        interrupts_a_stall: Err(CALLER_THREAD),
    }
}

pub fn sunrpc(serve: Serve) -> World {
    let net = SimNet::new();
    let (client, server) = (net.add_host("client"), net.add_host("server"));
    let w = sun_world("sunrpc", Arc::clone(&net), client, server);
    let srv = echo_server(&w.executions, &serve, net.clock());
    serve_on_net(&net, server, srv, PROG, VERS).expect("serves");
    w
}

/// The engine's same-domain connection: a call without a deadline on an
/// idle queue runs inline on the caller's thread, a deadline call is
/// queued, a `[oneway]` send runs on a worker.
pub fn engine(serve: Serve) -> World {
    let executions = Arc::new(AtomicU64::new(0));
    let engine = echo_engine(&executions, &serve);
    let conn = engine.connect("echo").establish().expect("connects");
    World {
        name: "engine",
        stub: ClientStub::new(compiled(), WireFormat::Cdr, Box::new(conn)),
        faults: Arc::clone(&engine) as Arc<dyn Faults>,
        clock: Arc::clone(engine.clock()),
        executions,
        engine: Some(engine),
        sun: None,
        failed_dispatch_reads: None,
        interrupts_a_stall: Ok(()),
    }
}

/// A `SunRpc` stub into the engine's network acceptor (`expose_on_net`),
/// where every record is queued.
pub fn engine_net(serve: Serve) -> World {
    let net = SimNet::new();
    let (client, server) = (net.add_host("client"), net.add_host("server"));
    let mut w = sun_world("engine_net", Arc::clone(&net), client, server);
    let engine = echo_engine(&w.executions, &serve);
    let (_, pres) = echo_interface();
    expose_on_net(&engine, &net, server, "echo", PROG, VERS, ClientInfo::of(&pres))
        .expect("exposes");
    w.engine = Some(engine);
    w.interrupts_a_stall = Err("no deadline crosses the wire: the caller waits out the reply");
    w
}

pub const WORLDS: [fn(Serve) -> World; 5] = [loopback, kernel, sunrpc, engine, engine_net];

/// Prints why `scenario` does not run on `world`: a capability the world
/// lacks by design.
pub fn skip(scenario: &str, world: &str, reason: &str) {
    println!("skip: {scenario} on {world}: {reason}");
}

/// Calls the unary `op` with `x` and returns its `u32` result.
pub fn call(
    stub: &mut ClientStub,
    op: &str,
    x: u32,
    options: &CallOptions,
) -> Result<u32, RpcError> {
    let mut frame = stub.new_frame(op).expect("frame");
    frame[0] = Value::U32(x);
    stub.call_with(op, &mut frame, options)?;
    Ok(frame[1].as_u32().expect("return"))
}

pub fn ping(stub: &mut ClientStub, x: u32) -> Result<u32, RpcError> {
    call(stub, "ping", x, &CallOptions::default())
}

pub fn note(stub: &mut ClientStub, x: u32) -> Result<(), RpcError> {
    let mut frame = stub.new_frame("note").expect("frame");
    frame[0] = Value::U32(x);
    stub.notify_with("note", &mut frame, &CallOptions::default())
}
