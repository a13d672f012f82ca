//! Retry policy acceptance: transient faults are absorbed, permanent
//! failures are not papered over, and the license to retry at all comes
//! from the PDL's `[idempotent]` declaration — checked before anything is
//! sent.

use flexrpc::clock::Fault;
use flexrpc::net::sunrpc::AcceptStat;
use flexrpc::net::{NetConfig, SimNet};
use flexrpc::prelude::*;
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

/// The Echo server, and the count of its `ping` executions.
fn echo_server(
    module: &flexrpc::core::ir::Module,
    fail_status: u32,
) -> (Arc<Mutex<ServerInterface>>, Arc<AtomicU64>) {
    let compiled = echo_compiled(module, false);
    let mut srv = ServerInterface::new(compiled, WireFormat::Cdr);
    let executions = Arc::new(AtomicU64::new(0));
    let ran = Arc::clone(&executions);
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
    // Client compiled *without* `[idempotent]` on ping.
    let compiled = echo_compiled(&module, false);
    // Construction-time rejection: binding the policy to the op fails.
    let op = compiled.op("ping").expect("op");
    let err = CallOptions::default()
        .retry_for(RetryPolicy::new(3), op)
        .expect_err("policy refused at construction");
    assert_eq!(err.kind(), ErrorKind::ContractViolation);
    // Call-time rejection: the same gate guards call_with, pre-send.
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

#[test]
fn pipeline_retry_resends_a_dropped_batch() {
    let module = echo_module();
    let iface = module.interface("Echo").expect("declared");
    let pres = InterfacePresentation::default_for(&module, iface).expect("defaults");
    let engine = Engine::builder().workers(2).build();
    engine
        .register_service("echo", module.clone(), "Echo", pres.clone(), WireFormat::Cdr, |srv| {
            srv.on("ping", |call| {
                let x = call.u32("x").expect("x");
                call.set("return", Value::U32(x + 1)).expect("return");
                0
            })
            .expect("registers");
        })
        .expect("service registers");
    let net = SimNet::with_config(NetConfig::default());
    let server_host = net.add_host("server");
    let client_host = net.add_host("client");
    flexrpc::engine::expose_on_net(
        &engine,
        &net,
        server_host,
        "echo",
        99,
        1,
        ClientInfo::of(&pres),
    )
    .expect("exposes");

    let compiled = echo_compiled(&module, true);
    let op = compiled.op("ping").expect("op");
    let mut pipe =
        flexrpc::engine::SunRpcPipeline::new(Arc::clone(&net), client_host, server_host, 99, 1)
            .retry(RetryPolicy::new(3).backoff(Duration::from_millis(1)).seed(9));

    // A non-idempotent op may not enter a retrying pipeline at all.
    let unlicensed = echo_compiled(&module, false);
    let err =
        pipe.submit_op(unlicensed.op("ping").expect("op"), &[]).expect_err("refused before send");
    assert_eq!(err.kind(), ErrorKind::ContractViolation);

    // The licensed op goes through; the first transmission is dropped in
    // transit and the policy's resend delivers the whole batch.
    let mut w = flexrpc::runtime::wire::AnyWriter::new(WireFormat::Cdr);
    w.put_u32(41);
    let args = w.into_bytes();
    pipe.submit_op(op, &args).expect("licensed");
    net.faults().on_next_call(Fault::Drop);
    let before = net.clock().now_ns();
    let replies = pipe.flush().expect("retry covers the drop");
    assert_eq!(replies.len(), 1);
    assert_eq!(replies[0].0, AcceptStat::Success);
    assert!(net.clock().now_ns() > before, "backoff was charged to the sim clock");
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
