//! Observability demo: trace a supervised failover end to end and emit a
//! Chrome-loadable trace file plus the unified metrics document.
//!
//! A same-domain serving engine is the primary; a Sun RPC standby on the
//! simulated network shares its state. The supervisor, the engine
//! connection, and the client stub all record spans on the *same* sim
//! clock, so the exported timeline shows the whole episode — healthy
//! calls, the crash, the rebind, the licensed replay, and recovery — with
//! deterministic timestamps.
//!
//! Run with `cargo run --example trace_failover` (or
//! `scripts/trace_demo.sh`), then load `target/trace.json` in
//! `chrome://tracing` or <https://ui.perfetto.dev>.

use flexrpc::clock::Fault;
use flexrpc::net::{NetConfig, SimNet};
use flexrpc::prelude::*;
use flexrpc::runtime::transport::{serve_on_net, SunRpc};
use std::sync::atomic::{AtomicU64, Ordering};

fn counter_module() -> flexrpc::core::ir::Module {
    corba::parse(
        "counter",
        r#"
        interface Counter {
            unsigned long add(in unsigned long x);
        };
        "#,
    )
    .expect("IDL parses")
}

fn compiled(m: &flexrpc::core::ir::Module) -> CompiledInterface {
    let iface = m.interface("Counter").expect("declared");
    let pres = InterfacePresentation::default_for(m, iface).expect("defaults");
    CompiledInterface::compile(m, iface, &pres).expect("compiles")
}

fn main() {
    let m = counter_module();
    let pres = {
        let iface = m.interface("Counter").expect("declared");
        InterfacePresentation::default_for(&m, iface).expect("defaults")
    };

    // One sim clock for the whole world: engine, network, and every span.
    let clock = SimClock::new();
    let net = SimNet::with_clock(NetConfig::default(), Arc::clone(&clock));
    let client_host = net.add_host("client");
    let standby_host = net.add_host("standby");

    // Replicated application state shared by primary and standby.
    let total = Arc::new(AtomicU64::new(0));
    let handler = |total: Arc<AtomicU64>| {
        move |call: &mut flexrpc::runtime::ServerCall<'_, '_>| {
            let x = call.u32("x").expect("x") as u64;
            let new = total.fetch_add(x, Ordering::SeqCst) + x;
            call.set("return", Value::U32(new as u32)).expect("return");
            0
        }
    };

    // Primary: a traced same-domain serving engine.
    let engine = Engine::builder().workers(2).clock(Arc::clone(&clock)).build();
    {
        let total = Arc::clone(&total);
        engine
            .register_service("counter", m.clone(), "Counter", pres.clone(), WireFormat::Cdr, {
                let handler = handler(total);
                move |srv| {
                    srv.on("add", handler.clone()).expect("registers");
                }
            })
            .expect("service registers");
    }

    // Standby: the same contract over Sun RPC.
    let standby = {
        let mut srv = ServerInterface::new(compiled(&m), WireFormat::Cdr);
        srv.on("add", handler(Arc::clone(&total))).expect("registers");
        Arc::new(Mutex::new(srv))
    };
    serve_on_net(&net, standby_host, standby, 500_001, 1).expect("standby serves");

    // The supervisor tries the engine first, the Sun RPC standby second.
    let eng = Arc::clone(&engine);
    let (m1, m2) = (m.clone(), m.clone());
    let (net2, c2) = (Arc::clone(&net), client_host);
    let mut sup = Supervisor::builder()
        .endpoint(move || {
            let conn =
                eng.connect("counter").options(CallOptions::default().traced()).establish()?;
            Ok(ClientStub::new(compiled(&m1), WireFormat::Cdr, Box::new(conn)))
        })
        .endpoint(move || {
            let t = SunRpc::new(Arc::clone(&net2), c2, standby_host, 500_001, 1);
            Ok(ClientStub::new(compiled(&m2), WireFormat::Cdr, Box::new(t)))
        })
        .connect()
        .expect("primary binds");
    sup.stub_mut().enable_at_most_once();
    sup.set_tracer(SharedCallTrace::sim(1024, Arc::clone(&clock)));

    // Everything reports into one registry: engine, supervisor, network.
    sup.register_metrics(engine.metrics());
    net.stats().register_metrics(engine.metrics());

    let traced = CallOptions::default().traced();
    let add = |sup: &mut Supervisor, x: u32| {
        let mut frame = sup.new_frame("add").expect("frame");
        frame[0] = Value::U32(x);
        sup.call_with("add", &mut frame, &traced).expect("call completes");
        frame[1].as_u32().expect("return")
    };

    // Healthy traffic on the primary, then a fatal crash mid-call: the
    // supervisor rebinds to the standby and replays under the original tag.
    for x in 1..=3 {
        add(&mut sup, x);
    }
    engine.faults().on_next_call(Fault::Crash { restart_after_ns: None });
    let after = add(&mut sup, 10);
    println!("recovered on endpoint {} with total {after}", sup.current_endpoint());
    for x in 4..=5 {
        add(&mut sup, x);
    }

    // Export every track into one Chrome trace: the supervisor's failover
    // episode (track 0) and the surviving stub's per-call spans (track 1).
    let mut chrome = ChromeTraceSink::new();
    sup.tracer().expect("tracer").export(0, &mut chrome);
    if let Some(t) = sup.stub().trace() {
        t.export(1, &mut chrome);
    }
    std::fs::create_dir_all("target").expect("target dir");
    std::fs::write("target/trace.json", chrome.into_string()).expect("trace written");

    let stats = sup.stats();
    println!(
        "disconnects {} rebinds {} replays {} recovery {} ns",
        stats.disconnects, stats.rebinds, stats.replays, stats.recovery_ns_last
    );
    println!("\nunified metrics:\n{}", engine.metrics().snapshot().to_json());
    println!("wrote target/trace.json — load it in chrome://tracing");
}
