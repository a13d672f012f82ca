//! Quickstart: define an interface, annotate a presentation, make calls —
//! then govern them with deadlines and retries.
//!
//! Walks the paper's introduction example end to end: the `SysLog`
//! interface, its default CORBA presentation, and the alternate
//! `length_is` presentation — both talking to the same server, because
//! presentation never touches the network contract. The final section
//! shows the robustness layer: per-call [`CallOptions`], the
//! `[idempotent]` retry license, and the one error type, [`RpcError`], with
//! its [`ErrorKind`] taxonomy.
//!
//! Everything here comes from one import. Run with:
//! `cargo run --example quickstart`

use flexrpc::prelude::*;
use std::time::Duration;

fn main() {
    // 1. The interface — the network contract (paper, introduction).
    let module = corba::parse(
        "syslog",
        r#"
        interface SysLog {
            void write_msg(in string msg);
        };
        "#,
    )
    .expect("IDL parses");
    let iface = module.interface("SysLog").expect("declared");

    // 2. The default presentation, computed by fixed rules.
    let default_pres = InterfacePresentation::default_for(&module, iface).expect("defaults");

    // 3. A server (any presentation; here the default).
    let compiled_server =
        CompiledInterface::compile(&module, iface, &default_pres).expect("compiles");
    let mut server = ServerInterface::new(compiled_server, WireFormat::Cdr);
    server
        .on("write_msg", |call| {
            println!("syslog: {}", call.str("msg").unwrap_or("<bad message>"));
            0
        })
        .expect("registers");
    let server = Arc::new(Mutex::new(server));

    // 4. A client with the *standard* presentation: checked strings.
    let compiled = CompiledInterface::compile(&module, iface, &default_pres).expect("compiles");
    let mut client =
        ClientStub::new(compiled, WireFormat::Cdr, Box::new(Loopback::new(Arc::clone(&server))));
    let mut frame = client.new_frame("write_msg").expect("frame");
    frame[0] = Value::Str("hello from the standard presentation".into());
    client.call("write_msg", &mut frame).expect("call succeeds");

    // 5. A second client, same interface, *alternate* presentation from the
    //    paper's PDL: the message travels as raw bytes with an explicit
    //    length — the stub changes shape, the wire bytes do not.
    let pdl = pdl::parse("SysLog_write_msg(,, char *[length_is(length)] msg, int length);")
        .expect("PDL parses");
    let annotated = apply_pdl(&module, iface, &default_pres, &pdl).expect("applies");
    let compiled = CompiledInterface::compile(&module, iface, &annotated).expect("compiles");
    assert_eq!(
        compiled.signature.hash(),
        client.compiled().signature.hash(),
        "presentation never changes the contract"
    );
    let mut client2 =
        ClientStub::new(compiled, WireFormat::Cdr, Box::new(Loopback::new(Arc::clone(&server))));
    let mut frame = client2.new_frame("write_msg").expect("frame");
    let raw: &[u8] = b"hello from the length_is presentation (no NUL scan)";
    frame[0] = Value::Bytes(raw.to_vec());
    client2.call("write_msg", &mut frame).expect("call succeeds");

    // 6. Robustness policy rides on the same declarations. A retry policy
    //    may resend a call, so it demands the op's license: `write_msg`
    //    has not declared `[idempotent]`, and the policy layer refuses the
    //    combination up front — a contract violation, not a late surprise.
    let options = CallOptions::default()
        .deadline(Duration::from_millis(5))
        .retry(RetryPolicy::new(3).backoff(Duration::from_millis(1)).seed(42));
    let mut frame = client2.new_frame("write_msg").expect("frame");
    frame[0] = Value::Bytes(b"never sent".to_vec());
    let err: RpcError =
        client2.call_with("write_msg", &mut frame, &options).expect_err("refused up front");
    assert_eq!(err.kind(), ErrorKind::ContractViolation);
    println!("retry without a license: {err}");

    // 7. A PDL line grants the license; the same options now pass the
    //    gate, and the deadline is enforced on the transport's sim clock.
    let pdl = pdl::parse("[idempotent] void SysLog_write_msg(char *msg);").expect("PDL parses");
    let idem = apply_pdl(&module, iface, &default_pres, &pdl).expect("applies");
    let compiled = CompiledInterface::compile(&module, iface, &idem).expect("compiles");
    let clock = SimClock::new();
    let transport = Loopback::with_clock(server, Arc::clone(&clock));
    // A fault drops the first send; the policy's backoff covers it and the
    // retry lands inside the deadline.
    transport.faults().on_next_call(flexrpc::clock::Fault::Drop);
    let mut client3 = ClientStub::new(compiled, WireFormat::Cdr, Box::new(transport));
    let mut frame = client3.new_frame("write_msg").expect("frame");
    frame[0] = Value::Str("delivered on the second attempt".into());
    client3.call_with("write_msg", &mut frame, &options).expect("retry covers the drop");
    println!("sim clock spent {} ns on backoff", clock.now_ns());
}
