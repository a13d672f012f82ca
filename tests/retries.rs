//! Retry policy acceptance: transient faults are absorbed, permanent
//! failures are not papered over, and the license to retry at all comes
//! from the PDL's `[idempotent]` declaration — checked before anything is
//! sent.

use flexrpc::clock::Fault;
use flexrpc::engine::expose_on_net;
use flexrpc::net::{NetConfig, SimNet};
use flexrpc::prelude::*;
use flexrpc::runtime::transport::SunRpc;
use flexrpc::runtime::RetryPolicy;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

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

/// Compiles the Echo client, optionally granting `ping` the retry license.
fn echo_compiled(module: &flexrpc::core::ir::Module, idempotent: bool) -> CompiledInterface {
    let iface = module.interface("Echo").expect("declared");
    let mut pres = InterfacePresentation::default_for(module, iface).expect("defaults");
    if idempotent {
        let pdl =
            pdl::parse("[idempotent] unsigned long Echo_ping(unsigned long x);").expect("parses");
        pres = apply_pdl(module, iface, &pres, &pdl).expect("applies");
    }
    CompiledInterface::compile(module, iface, &pres).expect("compiles")
}

/// Registers `ping` on `srv`, counting its executions in `executions`.
fn register_ping(srv: &mut ServerInterface, executions: &Arc<AtomicU64>, fail_status: u32) {
    let ran = Arc::clone(executions);
    srv.on("ping", move |call| {
        ran.fetch_add(1, Ordering::SeqCst);
        if fail_status != 0 {
            return fail_status;
        }
        let x = call.u32("x").expect("x");
        call.set("return", Value::U32(x + 1)).expect("return");
        0
    })
    .expect("registers");
}

/// The Echo server, and the count of its `ping` executions.
fn echo_server(
    module: &flexrpc::core::ir::Module,
    fail_status: u32,
) -> (Arc<Mutex<ServerInterface>>, Arc<AtomicU64>) {
    let compiled = echo_compiled(module, false);
    let mut srv = ServerInterface::new(compiled, WireFormat::Cdr);
    let executions = Arc::new(AtomicU64::new(0));
    register_ping(&mut srv, &executions, fail_status);
    (Arc::new(Mutex::new(srv)), executions)
}

fn retrying_options() -> CallOptions {
    CallOptions::default().retry(RetryPolicy::new(3).backoff(Duration::from_millis(1)).seed(7))
}

#[test]
fn transient_faults_are_absorbed_by_the_policy() {
    let module = echo_module();
    let (server, executions) = echo_server(&module, 0);
    let transport = Loopback::new(server);
    // Two consecutive drops: attempts 1 and 2 fail, attempt 3 delivers.
    // A third drop waits for the fourth send.
    transport.faults().on_next_call(Fault::Drop);
    transport.faults().on_nth_call(1, Fault::Drop);
    transport.faults().on_nth_call(3, Fault::Drop);
    let mut client =
        ClientStub::new(echo_compiled(&module, true), WireFormat::Cdr, Box::new(transport));
    let mut frame = client.new_frame("ping").expect("frame");
    frame[0] = Value::U32(41);
    assert_eq!(client.call_with("ping", &mut frame, &retrying_options()), Ok(0));
    assert_eq!(frame[1], Value::U32(42));
    assert_eq!(executions.load(Ordering::SeqCst), 1, "the dropped sends executed nothing");
    // The retried call took exactly three sends: the next one is the fourth.
    let err = client.call("ping", &mut frame).expect_err("the fourth send is dropped");
    assert_eq!(err.kind(), ErrorKind::Retryable, "{err}");
    assert_eq!(executions.load(Ordering::SeqCst), 1);
}

#[test]
fn permanent_failures_are_not_retried() {
    let module = echo_module();
    // The server *answers* every time — with an application error. That is
    // a delivered reply, not a transport fault; resending cannot help.
    let (server, executions) = echo_server(&module, 13);
    let transport = Loopback::new(server);
    let mut client =
        ClientStub::new(echo_compiled(&module, true), WireFormat::Cdr, Box::new(transport));
    let mut frame = client.new_frame("ping").expect("frame");
    frame[0] = Value::U32(41);
    let err = client.call_with("ping", &mut frame, &retrying_options()).expect_err("fails");
    assert_eq!(err.kind(), ErrorKind::Fatal, "{err}");
    assert_eq!(
        executions.load(Ordering::SeqCst),
        1,
        "a non-retryable failure is sent exactly once"
    );
}

#[test]
fn retry_without_idempotent_declaration_is_refused_before_sending() {
    let module = echo_module();
    let (server, executions) = echo_server(&module, 0);
    let transport = Loopback::new(server);
    // A drop for the first send that reaches the transport.
    transport.faults().on_next_call(Fault::Drop);
    // Client compiled *without* `[idempotent]` on ping: call_with refuses
    // the retry policy before the first send.
    let compiled = echo_compiled(&module, false);
    let mut client = ClientStub::new(compiled, WireFormat::Cdr, Box::new(transport));
    let mut frame = client.new_frame("ping").expect("frame");
    frame[0] = Value::U32(41);
    let err = client.call_with("ping", &mut frame, &retrying_options()).expect_err("refused");
    assert_eq!(err.kind(), ErrorKind::ContractViolation);
    // The drop is still waiting: the refused call sent nothing.
    let err = client.call("ping", &mut frame).expect_err("the first send is dropped");
    assert_eq!(err.kind(), ErrorKind::Retryable, "{err}");
    assert_eq!(executions.load(Ordering::SeqCst), 0, "nothing reached the server");
}

/// The stub's retry over the network to an engine: the request is dropped
/// in transit, the backoff is spent on the net's sim clock, and the resend
/// executes once. The license is the stub's too: without `[idempotent]`
/// the same options send nothing.
#[test]
fn stub_retry_resends_a_request_dropped_on_the_way_to_an_engine() {
    let module = echo_module();
    let iface = module.interface("Echo").expect("declared");
    let pres = InterfacePresentation::default_for(&module, iface).expect("defaults");
    let engine = Engine::builder().workers(1).build();
    let executions = Arc::new(AtomicU64::new(0));
    let ran = Arc::clone(&executions);
    engine
        .register_service(
            "echo",
            module.clone(),
            "Echo",
            pres.clone(),
            WireFormat::Cdr,
            move |srv| register_ping(srv, &ran, 0),
        )
        .expect("service registers");
    let net = SimNet::with_config(NetConfig::default());
    let server_host = net.add_host("server");
    let client_host = net.add_host("client");
    expose_on_net(&engine, &net, server_host, "echo", 99, 1, ClientInfo::of(&pres))
        .expect("exposes");
    let stub = |idempotent| {
        let transport = SunRpc::new(Arc::clone(&net), client_host, server_host, 99, 1);
        ClientStub::new(echo_compiled(&module, idempotent), WireFormat::Cdr, Box::new(transport))
    };
    let policy = RetryPolicy::new(3).backoff(Duration::from_millis(1)).seed(9);
    let options = CallOptions::default().retry(policy.clone());

    let mut client = stub(true);
    let mut frame = client.new_frame("ping").expect("frame");
    frame[0] = Value::U32(41);
    net.faults().on_next_call(Fault::Drop);
    let before = net.clock().now_ns();
    assert_eq!(client.call_with("ping", &mut frame, &options), Ok(0));
    assert_eq!(frame[1], Value::U32(42));
    assert!(
        net.clock().now_ns() - before >= policy.backoff_ns(1),
        "the first backoff was spent on the net's sim clock"
    );
    assert_eq!(executions.load(Ordering::SeqCst), 1, "the dropped request executed nothing");

    let mut unlicensed = stub(false);
    let sent = net.stats().messages.get();
    let err = unlicensed.call_with("ping", &mut frame, &options).expect_err("refused");
    assert_eq!(err.kind(), ErrorKind::ContractViolation);
    assert_eq!(net.stats().messages.get(), sent, "refused before anything was sent");
    assert_eq!(executions.load(Ordering::SeqCst), 1);
    engine.shutdown();
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
