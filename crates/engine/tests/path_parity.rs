//! Path parity: the inline path and the queue path are one call path.
//!
//! The same scripted sequence of blocking calls — ok, dispatch error,
//! induced `Close`, induced `Delay`, a tag-borne foreign tenant, all on a
//! traced connection — runs twice on fresh engines: once with the engine
//! idle (every call dispatches inline on the caller's thread) and once
//! behind a plugged backlog (every call rides the weighted-fair queue to
//! the worker). Both runs must produce identical reply bytes and error
//! kinds, identical spans, and identical `engine.*` / `tenant.<id>.*`
//! metrics, except the cells *defined* to tell the paths apart.
//!
//! Determinism: the backlog is a plug call parked inside its handler plus
//! one filler queued behind it; the scripted call is admitted behind both
//! and the plug is released only once it is queued. The idle run serves
//! the same plug and filler first (with the plug pre-released), so both
//! runs serve the same calls in the same admission order.

use flexrpc_clock::Fault;
use flexrpc_core::ir::fileio_example;
use flexrpc_core::present::InterfacePresentation;
use flexrpc_core::value::Value;
use flexrpc_engine::{CallTicket, Engine, TenantId};
use flexrpc_marshal::WireFormat;
use flexrpc_runtime::wire::AnyWriter;
use flexrpc_runtime::{CallControl, CallOptions, CallTag, ErrorKind, Transport};
use flexrpc_trace::{MetricsSnapshot, TraceEvent};
use parking_lot::Mutex;
use std::sync::mpsc;
use std::sync::Arc;

const TENANT_A: TenantId = TenantId(1);
const TENANT_B: TenantId = TenantId(2);
/// The plug and the filler: scaffolding, charged to a tenant of its own.
const TENANT_PLUG: TenantId = TenantId(3);

fn read_request(count: u32) -> Vec<u8> {
    let mut w = AnyWriter::new(WireFormat::Cdr);
    w.put_u32(count);
    w.into_bytes()
}

/// One scripted call: the fault armed for it, its request, its tag.
struct Step {
    name: &'static str,
    fault: Option<Fault>,
    request: Vec<u8>,
    tag: Option<CallTag>,
}

fn script() -> Vec<Step> {
    let step = |name, fault, request, tag| Step { name, fault, request, tag };
    vec![
        step("ok", None, read_request(4), None),
        step("dispatch error", None, Vec::new(), None),
        step("close", Some(Fault::Close), read_request(5), None),
        step("delay", Some(Fault::Delay(4096)), read_request(6), None),
        step("foreign tenant", None, read_request(7), Some(CallTag::for_tenant(9, 0, TENANT_B))),
    ]
}

struct Run {
    outcomes: Vec<Result<Vec<u8>, ErrorKind>>,
    spans: Vec<TraceEvent>,
    metrics: MetricsSnapshot,
}

fn run(queued: bool) -> Run {
    let engine = Engine::builder().workers(1).queue_depth(64).build();
    let (entered_tx, entered) = mpsc::channel();
    let (release, release_rx) = mpsc::channel::<()>();
    let release_rx = Arc::new(Mutex::new(release_rx));
    let m = fileio_example();
    let pres = InterfacePresentation::default_for(&m, m.interface("FileIO").unwrap()).unwrap();
    engine
        .register_service("parity", m, "FileIO", pres, WireFormat::Cdr, move |srv| {
            let (entered_tx, release_rx) = (entered_tx.clone(), Arc::clone(&release_rx));
            srv.on("read", move |call| {
                // Only the plug (count == 0) parks: it reports in, then
                // holds the lone worker until released.
                let count = call.u32("count").unwrap();
                if count == 0 {
                    entered_tx.send(()).unwrap();
                    release_rx.lock().recv().unwrap();
                }
                call.set("return", Value::Bytes(vec![0x5A; count as usize])).unwrap();
                0
            })
            .unwrap();
        })
        .unwrap();
    let side = engine.connect("parity").tenant(TENANT_PLUG).establish().unwrap();
    let mut conn = engine
        .connect("parity")
        .tenant(TENANT_A)
        .options(CallOptions::default().traced())
        .establish()
        .unwrap();
    let program = conn.program();
    let op = program.op("read").unwrap();

    let mut outcomes = Vec::new();
    for step in script() {
        if !queued {
            release.send(()).unwrap();
        }
        // The idle run drains each backlog call before the next is offered.
        let mut backlog = Vec::new();
        let drain = |backlog: &mut Vec<CallTicket>| {
            for ticket in backlog.drain(..) {
                ticket.wait().unwrap();
            }
        };
        backlog.push(side.submit(op.index, &read_request(0), &[]).unwrap());
        entered.recv().unwrap();
        if !queued {
            drain(&mut backlog);
        }
        backlog.push(side.submit(op.index, &read_request(1), &[]).unwrap());
        if !queued {
            drain(&mut backlog);
        }
        if let Some(fault) = step.fault {
            engine.faults().on_next_call(fault);
        }
        let ctl = CallControl { deadline_ns: None, tag: step.tag };
        let (mut reply, mut rights) = (Vec::new(), Vec::new());
        let result = std::thread::scope(|s| {
            let call =
                s.spawn(|| conn.call_with(op, &step.request, &[], &mut reply, &mut rights, &ctl));
            if queued {
                // Released only once the scripted call sits behind the
                // filler: it cannot have found the engine idle.
                while engine.stats().queue_depth < 2 {
                    std::thread::yield_now();
                }
                release.send(()).unwrap();
            }
            call.join().unwrap()
        });
        drain(&mut backlog);
        assert!(rights.is_empty(), "{}", step.name);
        outcomes.push(result.map(|_| reply).map_err(|e| e.kind()));
    }
    let inline_calls = engine.stats().inline_calls;
    let scripted = outcomes.len() as u64;
    assert_eq!(inline_calls, if queued { 0 } else { scripted }, "each run takes one path only");
    let spans = conn.trace().expect("traced connection").snapshot();
    let metrics = engine.metrics().snapshot();
    engine.shutdown();
    Run { outcomes, spans, metrics }
}

/// The cells that are *defined* to tell the two paths apart, plus what the
/// backlog itself (not the path) moves.
fn differs_by_definition(name: &str) -> bool {
    // Served inline; queued jobs their own waiting caller ran (the idle
    // run's filler, when its `wait` beats the parked worker to it — never
    // behind the plug, where the worker holds the one serve token); calls
    // admitted *to the queue*.
    name == "engine.inline_calls"
        || name == "engine.helped"
        || (name.starts_with("tenant.") && name.ends_with(".admitted"))
        // A high-water mark of concurrency: the plug that forces the queue
        // is itself one more call in flight.
        || name == "engine.peak_in_flight"
        // The filler waits out the induced delay in the queue: that is the
        // backlog's dwell, not the scripted call's.
        || name == format!("tenant.{}.dwell_ns", TENANT_PLUG.0)
}

#[test]
fn inline_and_queued_calls_are_one_path() {
    let (inline, queued) = (run(false), run(true));

    let names: Vec<_> = script().iter().map(|s| s.name).collect();
    for ((name, a), b) in names.iter().zip(&inline.outcomes).zip(&queued.outcomes) {
        assert_eq!(a, b, "{name}: reply bytes / error kind");
    }
    assert!(inline.outcomes[0].is_ok() && inline.outcomes[3].is_ok() && inline.outcomes[4].is_ok());
    assert_eq!(inline.outcomes[2], Err(ErrorKind::Disconnected));
    assert!(inline.outcomes[1].is_err());

    // Every span is sim-time: not just the stage sequence but each call
    // id, timestamp and detail word must agree.
    assert_eq!(inline.spans, queued.spans);
    assert!(inline.spans.len() > 2 * names.len(), "bind, then enqueue + dispatch per call");

    let ours = |name: &&String| name.starts_with("engine.") || name.starts_with("tenant.");
    let mut compared = 0;
    for name in inline.metrics.counters.keys().chain(queued.metrics.counters.keys()).filter(ours) {
        if !differs_by_definition(name) {
            assert_eq!(inline.metrics.counter(name), queued.metrics.counter(name), "{name}");
            compared += 1;
        }
    }
    for name in inline.metrics.histograms.keys().filter(ours) {
        let (a, b) = (inline.metrics.histogram(name), queued.metrics.histogram(name));
        if name == "engine.dwell_ns" {
            // The aggregate includes the filler's dwell (above).
            assert_eq!(a.map(|h| h.count), b.map(|h| h.count), "{name}");
        } else if !differs_by_definition(name) {
            assert_eq!(a, b, "{name}");
        }
        compared += 1;
    }
    assert!(compared > 30, "compared {compared} cells");
    assert_eq!(inline.metrics.counter("tenant.2.served"), 1, "the tag-borne tenant was charged");
    assert_eq!(inline.metrics.counter("engine.dispatch_errors"), 1);
    assert_eq!(queued.metrics.counter("engine.helped"), 0, "a serving worker is never helped");
}
