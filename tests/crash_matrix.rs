//! Crash matrix: the server dies at every call index, on every transport.
//!
//! Property: against a peer that crashes (and stays down) before call `k`
//! of a sequence, the client observes — for every transport the workspace
//! ships — either the correct reply (calls before the crash) or a *typed*
//! failure whose kind is `Disconnected` or `DeadlineExceeded`. Never a
//! hang, never a panic, never a torn reply. After an operator restart
//! (`FaultInjector::restore`) the same binding serves again.

use flexrpc::clock::Fault;
use flexrpc::kernel::{Kernel, NameMode};
use flexrpc::net::SimNet;
use flexrpc::prelude::*;
use flexrpc::runtime::transport::{connect_kernel, serve_on_kernel, serve_on_net, SunRpc};
use proptest::prelude::*;

const TRANSPORTS: &[&str] = &["loopback", "kernel", "sunrpc", "engine"];

fn echo_module() -> flexrpc::core::ir::Module {
    corba::parse(
        "echo",
        r#"
        interface Echo {
            unsigned long ping(in unsigned long x);
        };
        "#,
    )
    .expect("IDL parses")
}

fn compiled() -> CompiledInterface {
    let m = echo_module();
    let iface = m.interface("Echo").expect("declared");
    let pres = InterfacePresentation::default_for(&m, iface).expect("defaults");
    CompiledInterface::compile(&m, iface, &pres).expect("compiles")
}

fn echo_server() -> Arc<Mutex<ServerInterface>> {
    let mut srv = ServerInterface::new(compiled(), WireFormat::Cdr);
    srv.on("ping", |call| {
        let x = call.u32("x").expect("x");
        call.set("return", Value::U32(x.wrapping_add(1))).expect("return");
        0
    })
    .expect("registers");
    Arc::new(Mutex::new(srv))
}

/// One client binding plus handles to kill and revive its peer. The
/// `_keep` box pins whatever owns the fault injector (kernel, net,
/// engine) for the stub's lifetime.
struct World {
    stub: ClientStub,
    arm: Box<dyn Fn(Fault)>,
    restore: Box<dyn Fn()>,
}

fn loopback_world() -> World {
    let transport = flexrpc::runtime::transport::Loopback::new(echo_server());
    let faults = Arc::clone(transport.faults());
    let stub = ClientStub::new(compiled(), WireFormat::Cdr, Box::new(transport));
    let (f1, f2) = (Arc::clone(&faults), faults);
    World {
        stub,
        arm: Box::new(move |f| f1.on_next_call(f)),
        restore: Box::new(move || f2.restore()),
    }
}

fn kernel_world() -> World {
    let k = Kernel::new();
    let client_task = k.create_task("client", 4096).expect("task");
    let server_task = k.create_task("server", 4096).expect("task");
    let server = echo_server();
    let sig = server.lock().compiled().signature.hash();
    let port =
        serve_on_kernel(&k, server_task, server, Trust::None, NameMode::Unique).expect("serves");
    let send = k.extract_send_right(server_task, port, client_task).expect("send right");
    let transport =
        connect_kernel(&k, client_task, send, sig, Trust::None, NameMode::Unique).expect("binds");
    let stub = ClientStub::new(compiled(), WireFormat::Cdr, Box::new(transport));
    let (k1, k2) = (Arc::clone(&k), k);
    World {
        stub,
        arm: Box::new(move |f| k1.faults().on_next_call(f)),
        restore: Box::new(move || k2.faults().restore()),
    }
}

fn sunrpc_world() -> World {
    let net = SimNet::new();
    let ch = net.add_host("client");
    let sh = net.add_host("server");
    serve_on_net(&net, sh, echo_server(), 500_001, 1).expect("serves");
    let transport = SunRpc::new(Arc::clone(&net), ch, sh, 500_001, 1);
    let stub = ClientStub::new(compiled(), WireFormat::Cdr, Box::new(transport));
    let (n1, n2) = (Arc::clone(&net), net);
    World {
        stub,
        arm: Box::new(move |f| n1.faults().on_next_call(f)),
        restore: Box::new(move || n2.faults().restore()),
    }
}

fn engine_world() -> World {
    let engine = Engine::builder().workers(2).build();
    let m = echo_module();
    let iface = m.interface("Echo").expect("declared");
    let pres = InterfacePresentation::default_for(&m, iface).expect("defaults");
    engine
        .register_service("echo", m, "Echo", pres, WireFormat::Cdr, |srv| {
            srv.on("ping", |call| {
                let x = call.u32("x").expect("x");
                call.set("return", Value::U32(x.wrapping_add(1))).expect("return");
                0
            })
            .expect("registers");
        })
        .expect("service registers");
    let conn = engine.connect("echo").establish().expect("connects");
    let stub = ClientStub::new(compiled(), WireFormat::Cdr, Box::new(conn));
    let (e1, e2) = (Arc::clone(&engine), engine);
    World {
        stub,
        arm: Box::new(move |f| e1.faults().on_next_call(f)),
        restore: Box::new(move || e2.faults().restore()),
    }
}

fn world_for(name: &str) -> World {
    match name {
        "loopback" => loopback_world(),
        "kernel" => kernel_world(),
        "sunrpc" => sunrpc_world(),
        "engine" => engine_world(),
        other => unreachable!("unknown transport {other}"),
    }
}

fn ping(stub: &mut ClientStub, x: u32) -> Result<u32, RpcError> {
    let mut frame = stub.new_frame("ping").expect("frame");
    frame[0] = Value::U32(x);
    stub.call_with("ping", &mut frame, &CallOptions::default())?;
    Ok(frame[1].as_u32().expect("return"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Crash the peer before call index `crash_at` of a 6-call sequence:
    /// every earlier call echoes correctly, every call during the outage
    /// fails with a typed Disconnected (or DeadlineExceeded) — and after
    /// `restore()` the *same* binding echoes again.
    #[test]
    fn crash_at_every_index_is_typed_on_every_transport(
        transport_idx in 0usize..4,
        crash_at in 0usize..5,
    ) {
        let name = TRANSPORTS[transport_idx];
        let mut w = world_for(name);

        for i in 0..crash_at {
            let x = i as u32 * 10;
            let got = ping(&mut w.stub, x);
            prop_assert_eq!(got.expect("pre-crash call succeeds"), x + 1,
                "wrong echo before the crash on {}", name);
        }

        (w.arm)(Fault::Crash { restart_after_ns: None });
        // The crashed call and a follow-up during the outage: both must
        // fail *typed* — no hang, no panic, no stale bytes decoded as a
        // reply.
        for _ in 0..2 {
            match ping(&mut w.stub, 77) {
                Ok(v) => prop_assert!(false, "call during outage returned Ok({v}) on {}", name),
                Err(e) => prop_assert!(
                    matches!(e.kind(), ErrorKind::Disconnected | ErrorKind::DeadlineExceeded),
                    "untyped failure during outage on {}: kind {:?} ({})", name, e.kind(), e
                ),
            }
        }

        // Operator restart: the binding itself was never torn down, so it
        // serves again without rebinding.
        (w.restore)();
        prop_assert_eq!(ping(&mut w.stub, 1000).expect("post-restore call succeeds"), 1001,
            "wrong echo after restore on {}", name);
    }
}

/// The deterministic corners the shim's RNG sweep might miss: crash on the
/// very first call, on every transport.
#[test]
fn first_call_crash_is_typed_everywhere() {
    for name in TRANSPORTS {
        let mut w = world_for(name);
        (w.arm)(Fault::Crash { restart_after_ns: None });
        let err = ping(&mut w.stub, 3).expect_err("first call crashed");
        assert_eq!(err.kind(), ErrorKind::Disconnected, "on {name}: {err}");
        (w.restore)();
        assert_eq!(ping(&mut w.stub, 3).expect("restored"), 4, "on {name}");
    }
}
