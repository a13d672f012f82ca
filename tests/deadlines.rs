//! Acceptance: a 1 ms deadline against a stalled server returns
//! `ErrorKind::DeadlineExceeded` — never a hang — on all four transports
//! (loopback, kernel IPC, Sun RPC, engine connection).
//!
//! "Stalled" is simulated deterministically: on the first three transports
//! a `Fault::Delay` charges 10 ms of virtual time to the call, so the
//! deadline comparison is exact; on the engine transport the handler
//! really blocks on a gate while another thread advances the engine's sim
//! clock past the deadline.

use flexrpc::clock::Fault;
use flexrpc::kernel::{Kernel, NameMode};
use flexrpc::net::{NetConfig, SimNet};
use flexrpc::prelude::*;
use flexrpc::runtime::transport::{connect_kernel, serve_on_kernel, serve_on_net, SunRpc};
use std::sync::{Condvar, PoisonError};
use std::time::Duration;

const STALL_NS: u64 = 10_000_000; // 10 ms of virtual time
const DEADLINE: Duration = Duration::from_millis(1);

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

fn echo_presentation(module: &flexrpc::core::ir::Module) -> InterfacePresentation {
    let iface = module.interface("Echo").expect("declared");
    InterfacePresentation::default_for(module, iface).expect("defaults")
}

fn echo_server(module: &flexrpc::core::ir::Module) -> Arc<Mutex<ServerInterface>> {
    let pres = echo_presentation(module);
    let iface = module.interface("Echo").expect("declared");
    let compiled = CompiledInterface::compile(module, iface, &pres).expect("compiles");
    let mut srv = ServerInterface::new(compiled, WireFormat::Cdr);
    srv.on("ping", |call| {
        let x = call.u32("x").expect("x");
        call.set("return", Value::U32(x + 1)).expect("return");
        0
    })
    .expect("registers");
    Arc::new(Mutex::new(srv))
}

fn echo_client(
    module: &flexrpc::core::ir::Module,
    transport: Box<dyn flexrpc::runtime::Transport>,
) -> ClientStub {
    let pres = echo_presentation(module);
    let iface = module.interface("Echo").expect("declared");
    let compiled = CompiledInterface::compile(module, iface, &pres).expect("compiles");
    ClientStub::new(compiled, WireFormat::Cdr, transport)
}

fn assert_deadline_exceeded(client: &mut ClientStub) {
    let options = CallOptions::default().deadline(DEADLINE);
    let mut frame = client.new_frame("ping").expect("frame");
    frame[0] = Value::U32(41);
    let err = client.call_with("ping", &mut frame, &options).expect_err("deadline must fire");
    assert_eq!(err.kind(), ErrorKind::DeadlineExceeded, "{err}");
}

#[test]
fn loopback_deadline_vs_stalled_server() {
    let module = echo_module();
    let server = echo_server(&module);
    let transport = Loopback::new(server);
    transport.faults().on_next_call(Fault::Delay(STALL_NS));
    let mut client = echo_client(&module, Box::new(transport));
    assert_deadline_exceeded(&mut client);

    // Control: with the stall spent, the same deadline admits the call.
    let options = CallOptions::default().deadline(DEADLINE);
    let mut frame = client.new_frame("ping").expect("frame");
    frame[0] = Value::U32(41);
    assert_eq!(client.call_with("ping", &mut frame, &options), Ok(0));
    assert_eq!(frame[1], Value::U32(42));
}

#[test]
fn kernel_ipc_deadline_vs_stalled_server() {
    let module = echo_module();
    let server = echo_server(&module);
    let kernel = Kernel::new();
    let client_task = kernel.create_task("client", 4096).expect("task");
    let server_task = kernel.create_task("server", 4096).expect("task");
    let port = serve_on_kernel(&kernel, server_task, server, Trust::None, NameMode::Unique)
        .expect("serves");
    let send = kernel.extract_send_right(server_task, port, client_task).expect("right");
    let pres = echo_presentation(&module);
    let iface = module.interface("Echo").expect("declared");
    let compiled = CompiledInterface::compile(&module, iface, &pres).expect("compiles");
    let signature = compiled.signature.hash();
    let transport =
        connect_kernel(&kernel, client_task, send, signature, Trust::None, NameMode::Unique)
            .expect("binds");
    kernel.faults().on_next_call(Fault::Delay(STALL_NS));
    let mut client = ClientStub::new(compiled, WireFormat::Cdr, Box::new(transport));
    assert_deadline_exceeded(&mut client);
}

#[test]
fn sun_rpc_deadline_vs_stalled_server() {
    let module = echo_module();
    let server = echo_server(&module);
    let net = SimNet::with_config(NetConfig::default());
    let server_host = net.add_host("server");
    let client_host = net.add_host("client");
    serve_on_net(&net, server_host, server, 99, 1).expect("serves");
    net.faults().on_next_call(Fault::Delay(STALL_NS));
    let transport = SunRpc::new(Arc::clone(&net), client_host, server_host, 99, 1);
    let mut client = echo_client(&module, Box::new(transport));
    assert_deadline_exceeded(&mut client);
}

#[test]
fn engine_connection_deadline_vs_stalled_server() {
    let module = echo_module();
    let pres = echo_presentation(&module);
    let engine = Engine::builder().workers(1).build();
    // The handler blocks on a gate — a genuinely stalled server, not a
    // virtual-time charge.
    let gate = Arc::new((std::sync::Mutex::new(false), Condvar::new()));
    let g = Arc::clone(&gate);
    engine
        .register_service("echo", module.clone(), "Echo", pres, WireFormat::Cdr, move |srv| {
            let g = Arc::clone(&g);
            srv.on("ping", move |call| {
                let (lock, cv) = &*g;
                let open = lock.lock().unwrap_or_else(PoisonError::into_inner);
                drop(cv.wait_while(open, |open| !*open).unwrap_or_else(PoisonError::into_inner));
                let x = call.u32("x").expect("x");
                call.set("return", Value::U32(x + 1)).expect("return");
                0
            })
            .expect("registers");
        })
        .expect("service registers");
    let conn = engine.connect("echo").establish().expect("connects");
    let mut client = echo_client(&module, Box::new(conn));

    // Another thread plays "time passes while the server is stuck":
    // advance the sim clock past the deadline, then release the handler.
    let clock = Arc::clone(engine.clock());
    let g = Arc::clone(&gate);
    let time_passes = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(50));
        clock.advance(Duration::from_millis(2));
        std::thread::sleep(Duration::from_millis(50));
        let (lock, cv) = &*g;
        *lock.lock().unwrap_or_else(PoisonError::into_inner) = true;
        cv.notify_all();
    });
    assert_deadline_exceeded(&mut client);
    time_passes.join().unwrap();
    engine.shutdown();
}
