//! Failure-model experiment: duplicate suppression under a reply-loss
//! storm, and the recovery latency of a supervised failover — both on
//! deterministic sim time, so the numbers are exact and CI can gate on
//! them.
//!
//! Two scenarios:
//!
//! * **Storm** — a non-idempotent counter behind an at-most-once reply
//!   cache, with every `close_every`-th reply lost after execution. The
//!   tagged retries must all be answered from the cache: the handler runs
//!   exactly once per logical call, and the suppression hit rate over the
//!   injected faults is 1.0.
//! * **Recovery** — a supervised same-domain client whose serving engine
//!   crashes after `crash_at` healthy calls. The supervisor rebinds to a
//!   Sun RPC standby and replays; the disconnect-to-reply latency is pure
//!   sim-clock wire time, identical on every run.

use flexrpc_clock::{Fault, SimClock};
use flexrpc_core::ir::Module;
use flexrpc_core::present::InterfacePresentation;
use flexrpc_core::program::CompiledInterface;
use flexrpc_core::value::Value;
use flexrpc_engine::Engine;
use flexrpc_marshal::WireFormat;
use flexrpc_net::{NetConfig, SimNet};
use flexrpc_runtime::replycache::ReplyCache;
use flexrpc_runtime::transport::{serve_on_net, Loopback, SunRpc};
use flexrpc_runtime::{
    CallOptions, ClientStub, RetryPolicy, RpcError, ServerInterface, Supervisor,
};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Logical calls offered in the storm scenario (report binary).
pub const STORM_CALLS: usize = 200;
/// Every n-th reply is lost after the server executed.
pub const CLOSE_EVERY: usize = 3;
/// Healthy-call counts after which the recovery scenario crashes the
/// primary.
pub const CRASH_POINTS: [usize; 4] = [0, 1, 4, 16];
/// Recovery must complete within this much sim time (one rebind plus one
/// replayed call over the simulated net — generous headroom above it).
pub const RECOVERY_BOUND_NS: u64 = 50_000_000;

/// Storm results. With the cache doing its job, `executions == calls` and
/// `hit_rate == 1.0` exactly.
#[derive(Debug, Clone, Copy)]
pub struct StormRun {
    /// Logical calls the client made (every one succeeded).
    pub calls: usize,
    /// Replies lost in transit (faults injected).
    pub faults: usize,
    /// Handler executions observed server-side.
    pub executions: u64,
    /// Resends answered from the reply cache.
    pub suppressions: u64,
    /// suppressions / faults.
    pub hit_rate: f64,
}

/// One recovery measurement.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryRun {
    /// Healthy calls served by the primary before it crashed.
    pub crash_at: usize,
    /// Disconnect-to-recovered-reply latency, sim-clock nanoseconds.
    pub recovery_ns: u64,
    /// Handler executions beyond one per logical call (must be 0: the
    /// crashed call never executed on the primary, and the replay ran
    /// exactly once on the standby).
    pub duplicate_executions: i64,
}

fn counter_module() -> Module {
    flexrpc_idl::corba::parse(
        "counter",
        r#"
        interface Counter {
            unsigned long add(in unsigned long x);
        };
        "#,
    )
    .expect("IDL parses")
}

fn compiled(m: &Module) -> CompiledInterface {
    let iface = m.interface("Counter").expect("declared");
    let pres = InterfacePresentation::default_for(m, iface).expect("defaults");
    CompiledInterface::compile(m, iface, &pres).expect("compiles")
}

fn counter_handler(
    executions: &Arc<AtomicU64>,
    total: &Arc<AtomicU64>,
) -> impl FnMut(&mut flexrpc_runtime::server::ServerCall<'_, '_>) -> u32 + Send + 'static {
    let (ex, tot) = (Arc::clone(executions), Arc::clone(total));
    move |call| {
        ex.fetch_add(1, Ordering::SeqCst);
        let x = call.u32("x").expect("x") as u64;
        let new = tot.fetch_add(x, Ordering::SeqCst) + x;
        call.set("return", Value::U32(new as u32)).expect("return");
        0
    }
}

fn add(stub: &mut ClientStub, x: u32, opts: &CallOptions) -> Result<u32, RpcError> {
    let mut frame = stub.new_frame("add").expect("frame");
    frame[0] = Value::U32(x);
    stub.call_with("add", &mut frame, opts)?;
    Ok(frame[1].as_u32().expect("return"))
}

/// Runs the reply-loss storm: `calls` tagged calls against a cached
/// non-idempotent server, losing every `close_every`-th reply after the
/// handler ran.
pub fn storm(calls: usize, close_every: usize) -> StormRun {
    let m = counter_module();
    let clock = SimClock::new();
    let cache = ReplyCache::new(Arc::clone(&clock), Duration::from_secs(60));
    let executions = Arc::new(AtomicU64::new(0));
    let total = Arc::new(AtomicU64::new(0));

    let mut srv = ServerInterface::new(compiled(&m), WireFormat::Cdr);
    srv.set_reply_cache(Arc::clone(&cache));
    srv.on("add", counter_handler(&executions, &total)).expect("registers");

    let transport = Loopback::with_clock(Arc::new(Mutex::new(srv)), Arc::clone(&clock));
    let faults = Arc::clone(transport.faults());
    let mut client = ClientStub::new(compiled(&m), WireFormat::Cdr, Box::new(transport));
    client.enable_at_most_once();
    let opts =
        CallOptions::default().retry(RetryPolicy::new(3).backoff(Duration::from_millis(1)).seed(7));

    let mut injected = 0usize;
    let mut expected = 0u64;
    for i in 0..calls {
        if close_every > 0 && i % close_every == 0 {
            faults.on_next_call(Fault::Close);
            injected += 1;
        }
        let x = (i % 50 + 1) as u32;
        expected += x as u64;
        let got = add(&mut client, x, &opts).expect("storm call recovers");
        assert_eq!(got as u64, expected & 0xFFFF_FFFF, "running total is exact");
    }
    assert_eq!(total.load(Ordering::SeqCst), expected, "no double execution corrupted state");

    let s = cache.stats();
    StormRun {
        calls,
        faults: injected,
        executions: executions.load(Ordering::SeqCst),
        suppressions: s.suppressions,
        hit_rate: if injected == 0 { 1.0 } else { s.suppressions as f64 / injected as f64 },
    }
}

/// Crashes a same-domain primary after `crash_at` healthy calls and
/// measures the supervised failover to a Sun RPC standby.
pub fn failover_once(crash_at: usize) -> RecoveryRun {
    let m = counter_module();
    let clock = SimClock::new();
    let net = SimNet::with_clock(NetConfig::default(), Arc::clone(&clock));
    let client_host = net.add_host("client");
    let standby_host = net.add_host("standby");

    let engine = Engine::builder().workers(2).clock(Arc::clone(&clock)).build();
    let executions = Arc::new(AtomicU64::new(0));
    let total = Arc::new(AtomicU64::new(0));
    {
        let (ex, tot) = (Arc::clone(&executions), Arc::clone(&total));
        let iface = m.interface("Counter").expect("declared");
        let pres = InterfacePresentation::default_for(&m, iface).expect("defaults");
        engine
            .register_service(
                "counter",
                counter_module(),
                "Counter",
                pres,
                WireFormat::Cdr,
                move |srv| {
                    srv.on("add", counter_handler(&ex, &tot)).expect("registers");
                },
            )
            .expect("service registers");
    }

    let standby = {
        let mut srv = ServerInterface::new(compiled(&m), WireFormat::Cdr);
        srv.on("add", counter_handler(&executions, &total)).expect("registers");
        Arc::new(Mutex::new(srv))
    };
    serve_on_net(&net, standby_host, standby, 300_001, 1).expect("standby serves");

    let eng = Arc::clone(&engine);
    let (net2, ch) = (Arc::clone(&net), client_host);
    let mut sup = Supervisor::builder()
        .endpoint(move || {
            let conn = eng.connect("counter").establish()?;
            Ok(ClientStub::new(compiled(&counter_module()), WireFormat::Cdr, Box::new(conn)))
        })
        .endpoint(move || {
            let t = SunRpc::new(Arc::clone(&net2), ch, standby_host, 300_001, 1);
            Ok(ClientStub::new(compiled(&counter_module()), WireFormat::Cdr, Box::new(t)))
        })
        .connect()
        .expect("primary binds");
    sup.stub_mut().enable_at_most_once();

    let opts = CallOptions::default();
    for i in 0..crash_at {
        let x = (i + 1) as u32;
        let mut frame = sup.new_frame("add").expect("frame");
        frame[0] = Value::U32(x);
        sup.call_with("add", &mut frame, &opts).expect("healthy call");
    }

    engine.faults().on_next_call(Fault::Crash { restart_after_ns: None });
    let mut frame = sup.new_frame("add").expect("frame");
    frame[0] = Value::U32(99);
    sup.call_with("add", &mut frame, &opts).expect("failover completes");
    assert_eq!(sup.current_endpoint(), 1, "now bound to the standby");

    let logical = crash_at as u64 + 1;
    let run = RecoveryRun {
        crash_at,
        recovery_ns: sup.stats().recovery_ns_last,
        duplicate_executions: executions.load(Ordering::SeqCst) as i64 - logical as i64,
    };
    engine.shutdown();
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_suppresses_every_lost_reply() {
        let r = storm(60, 3);
        assert_eq!(r.executions, r.calls as u64, "one execution per logical call: {r:?}");
        assert_eq!(r.suppressions, r.faults as u64, "every resend was a cache hit: {r:?}");
        assert_eq!(r.hit_rate, 1.0);
    }

    #[test]
    fn recovery_is_bounded_and_duplicate_free() {
        for crash_at in [0, 2] {
            let r = failover_once(crash_at);
            assert_eq!(r.duplicate_executions, 0, "{r:?}");
            assert!(r.recovery_ns > 0, "replay wire time is charged: {r:?}");
            assert!(r.recovery_ns <= RECOVERY_BOUND_NS, "{r:?}");
        }
    }

    #[test]
    fn recovery_latency_is_deterministic() {
        let a = failover_once(1);
        let b = failover_once(1);
        assert_eq!(a.recovery_ns, b.recovery_ns, "sim time has no noise");
    }
}
