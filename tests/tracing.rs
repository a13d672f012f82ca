//! Deterministic tracing and the unified metrics plane, end to end.
//!
//! Pins the tentpole observability guarantees: (1) two identical
//! sim-clock runs produce **byte-identical** exported trace streams —
//! observability is part of the deterministic replay story, not a source
//! of nondeterminism; (2) the engine's trace covers the whole call path
//! (bind, queue dwell, dispatch) while the client stub covers its side
//! (marshal, transport, unmarshal); (3) the metrics registry reads the
//! very same cells the legacy stats accessors read, so the two views can
//! never disagree.

use flexrpc::core::ir::{fileio_example, Dialect};
use flexrpc::core::present::InterfacePresentation;
use flexrpc::core::program::CompiledInterface;
use flexrpc::core::value::Value;
use flexrpc::engine::{ClientInfo, Engine};
use flexrpc::marshal::WireFormat;
use flexrpc::net::SimNet;
use flexrpc::runtime::transport::{serve_on_net, SunRpc};
use flexrpc::runtime::{CallOptions, ClientStub, ServerInterface};
use flexrpc::trace::{ChromeTraceSink, JsonLinesSink, Stage};
use parking_lot::Mutex;
use std::sync::Arc;

fn traced_roundtrips(client: &mut ClientStub, options: &CallOptions, calls: usize) {
    for i in 0..calls {
        let mut wf = client.new_frame("write").expect("frame");
        wf[0] = Value::Bytes(vec![i as u8; 64 + i]);
        assert_eq!(client.call_with("write", &mut wf, options).expect("write"), 0);
        let mut rf = client.new_frame("read").expect("frame");
        rf[0] = Value::U32(64);
        assert_eq!(client.call_with("read", &mut rf, options).expect("read"), 0);
    }
}

fn register_fileio(srv: &mut ServerInterface) {
    let stored: Arc<Mutex<Vec<u8>>> = Arc::default();
    let st = Arc::clone(&stored);
    srv.on("write", move |call| {
        *st.lock() = call.bytes("data").expect("data").to_vec();
        0
    })
    .expect("write");
    srv.on("read", move |call| {
        let n = call.u32("count").expect("count") as usize;
        let data = stored.lock();
        let n = n.min(data.len());
        call.set("return", Value::Bytes(data[..n].to_vec())).expect("return");
        0
    })
    .expect("read");
}

/// One full traced Sun RPC run on a fresh net and clock; returns both
/// exported trace streams.
fn traced_sun_run() -> (String, String) {
    let mut m = fileio_example();
    m.dialect = Dialect::Sun;
    let iface = m.interface("FileIO").expect("FileIO");
    let pres = InterfacePresentation::default_for(&m, iface).expect("defaults");
    let compiled = CompiledInterface::compile(&m, iface, &pres).expect("compiles");

    let net = SimNet::new();
    let ch = net.add_host("client");
    let sh = net.add_host("server");
    let mut srv = ServerInterface::new_shared(Arc::new(compiled.clone()), WireFormat::Xdr);
    register_fileio(&mut srv);
    serve_on_net(&net, sh, Arc::new(Mutex::new(srv)), 200_001, 1).expect("serves");

    let transport = SunRpc::new(Arc::clone(&net), ch, sh, 200_001, 1);
    let mut client = ClientStub::new(compiled, WireFormat::Xdr, Box::new(transport));
    let options = CallOptions::default().traced();
    traced_roundtrips(&mut client, &options, 8);

    let trace = client.trace().expect("tracer installed");
    let mut lines = JsonLinesSink::new();
    trace.export(1, &mut lines);
    let mut chrome = ChromeTraceSink::new();
    trace.export(1, &mut chrome);
    (lines.into_string(), chrome.into_string())
}

#[test]
fn traced_sun_rpc_runs_are_byte_identical() {
    let (lines_a, chrome_a) = traced_sun_run();
    let (lines_b, chrome_b) = traced_sun_run();
    assert_eq!(lines_a, lines_b, "JSON-lines export is deterministic");
    assert_eq!(chrome_a, chrome_b, "Chrome trace export is deterministic");

    // The streams are non-trivial: 16 calls × (marshal, transport,
    // unmarshal), and the network charged real sim time to transport.
    assert_eq!(lines_a.lines().count(), 16 * 3, "three spans per call");
    let transport: Vec<&str> =
        lines_a.lines().filter(|l| l.contains("\"stage\":\"transport\"")).collect();
    assert_eq!(transport.len(), 16);
    // Marshal/unmarshal charge no sim time (pure CPU), but every wire
    // crossing does, so the timestamps genuinely advance run-long.
    for line in &transport {
        assert!(!line.contains("\"dur_ns\":0,"), "transport span has sim duration: {line}");
    }
    assert!(chrome_a.starts_with("[\n") && chrome_a.ends_with("\n]\n"), "chrome JSON array");
    assert!(chrome_a.contains("\"ph\":\"X\""), "complete events");
}

#[test]
fn engine_trace_covers_bind_dwell_dispatch_and_metrics_agree() {
    let engine = Engine::builder().workers(2).queue_depth(16).build();
    let m = fileio_example();
    let iface = m.interface("FileIO").expect("FileIO");
    let pres = InterfacePresentation::default_for(&m, iface).expect("defaults");
    engine
        .register_service("fileio", m.clone(), "FileIO", pres.clone(), WireFormat::Cdr, |srv| {
            register_fileio(srv)
        })
        .expect("registers");

    let conn = engine
        .connect("fileio")
        .client(ClientInfo::of(&pres))
        .options(CallOptions::default().traced())
        .establish()
        .expect("connects");
    let server_trace = conn.trace().expect("traced connection").clone();
    let compiled = conn.program();
    let mut client = ClientStub::new_shared(compiled, WireFormat::Cdr, Box::new(conn));
    let options = CallOptions::default().traced();
    traced_roundtrips(&mut client, &options, 5);

    // The engine-side trace saw the bind (which compiled the combination)
    // and, per call, the queue dwell and dispatch.
    let stages: Vec<Stage> = server_trace.snapshot().iter().map(|ev| ev.stage).collect();
    assert!(stages.contains(&Stage::Bind), "bind span recorded");
    assert!(stages.contains(&Stage::Specialize), "first bind compiled (specialized)");
    assert_eq!(stages.iter().filter(|s| **s == Stage::Enqueue).count(), 10, "dwell per call");
    assert_eq!(stages.iter().filter(|s| **s == Stage::Dispatch).count(), 10);
    // The client-side trace saw its three stages per call.
    let totals = client.trace().expect("client tracer").ring().total();
    assert_eq!(totals, 10 * 3, "marshal, transport, unmarshal per call");

    // The registry view and the legacy stats view read the same cells.
    let stats = engine.stats();
    let snap = engine.metrics().snapshot();
    assert_eq!(snap.counter("engine.calls_served"), stats.calls_served);
    assert!(stats.calls_served >= 10);
    assert_eq!(snap.counter("engine.connections"), stats.connections);
    assert_eq!(snap.counter("cache.miss"), stats.cache.misses);
    assert_eq!(snap.counter("cache.hit"), stats.cache.hits);
    let dwell = snap.histogram("engine.dwell_ns").expect("dwell histogram registered");
    assert_eq!(dwell.count, stats.calls_served, "one dwell observation per started job");
    let json = snap.to_json();
    for name in ["engine.calls_served", "engine.shed", "cache.hit", "breaker", "engine.dwell_ns"] {
        if name == "breaker" {
            continue; // No breaker configured on this engine.
        }
        assert!(json.contains(&format!("\"{name}\"")), "{name} exported: {json}");
    }
    engine.shutdown();
}

/// A supervised failover leaves a complete trace of the recovery episode
/// (rebind, licensed replay, the failover envelope), and the supervisor's
/// counters adopt into the same registry as everything else.
#[test]
fn supervisor_failover_is_traced_and_registered() {
    use flexrpc::clock::Fault;
    use flexrpc::runtime::Supervisor;
    use flexrpc::trace::{MetricsRegistry, SharedCallTrace};
    use std::time::Duration;

    let engine =
        Engine::builder().workers(2).at_most_once(Duration::from_secs(5)).queue_depth(16).build();
    let m = fileio_example();
    let iface = m.interface("FileIO").expect("FileIO");
    let pres = InterfacePresentation::default_for(&m, iface).expect("defaults");
    engine
        .register_service("fileio", m.clone(), "FileIO", pres, WireFormat::Cdr, register_fileio)
        .expect("registers");

    let eng = Arc::clone(&engine);
    let pres = InterfacePresentation::default_for(&m, iface).expect("defaults");
    let compiled = CompiledInterface::compile(&m, iface, &pres).expect("compiles");
    let mut sup = Supervisor::builder()
        .endpoint(move || {
            let conn = eng.connect("fileio").establish()?;
            Ok(ClientStub::new(compiled.clone(), WireFormat::Cdr, Box::new(conn)))
        })
        .connect()
        .expect("binds");
    sup.stub_mut().enable_at_most_once();
    sup.set_tracer(SharedCallTrace::sim(256, Arc::clone(engine.clock())));
    let registry = MetricsRegistry::new();
    sup.register_metrics(&registry);

    // The engine executes the write, then the connection closes before the
    // reply; the supervisor rebinds and replays under the original tag.
    engine.faults().on_next_call(Fault::Close);
    let mut wf = sup.new_frame("write").expect("frame");
    wf[0] = Value::Bytes(vec![9u8; 32]);
    sup.call_with("write", &mut wf, &CallOptions::default()).expect("replay recovers");

    let stages: Vec<Stage> =
        sup.tracer().expect("tracer").snapshot().iter().map(|ev| ev.stage).collect();
    for want in [Stage::Bind, Stage::Replay, Stage::Failover] {
        assert!(stages.contains(&want), "failover episode recorded {want:?}: {stages:?}");
    }
    let stats = sup.stats();
    let snap = registry.snapshot();
    assert_eq!(snap.counter("supervisor.disconnect"), stats.disconnects);
    assert_eq!(snap.counter("supervisor.replay"), stats.replays);
    assert_eq!(stats.replays, 1);
    assert_eq!(snap.counter("supervisor.rebind"), stats.rebinds);
    assert_eq!(stats.rebinds, 2, "initial bind plus the failover rebind");
    engine.shutdown();
}

/// A kernel's and a net's counters adopt into the same registry as the
/// engine's, giving one JSON document for the whole system.
#[test]
fn kernel_and_net_counters_join_the_registry() {
    use flexrpc::kernel::Kernel;
    use flexrpc::trace::MetricsRegistry;

    let registry = MetricsRegistry::new();
    let kernel = Kernel::new();
    kernel.stats().register_metrics(&registry);
    let net = SimNet::new();
    net.stats().register_metrics(&registry);

    let a = net.add_host("a");
    let b = net.add_host("b");
    net.register_service(b, |req| Ok(req.to_vec())).expect("serves");
    let mut reply = Vec::new();
    net.call(a, b, &[7u8; 2000], &mut reply).expect("echo");

    let snap = registry.snapshot();
    assert_eq!(snap.counter("net.message"), net.stats().messages.get());
    assert!(snap.counter("net.message") >= 1);
    assert!(snap.counter("net.packet") >= 2, "2000 bytes crossed at MTU 1500");
    assert_eq!(snap.counter("kernel.message"), 0, "kernel idle but registered");
    assert!(snap.to_json().contains("\"kernel.bytes_copied_in\""));
}
