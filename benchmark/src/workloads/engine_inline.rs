//! `engine_inline` — the same calls as `null_loopback`, with only the
//! engine added: `Engine` (one worker) → `connect().establish()`, every
//! call dispatched inline on the caller's thread.
//!
//! Same handler, same bytes: the gap to `null_loopback` is what admission,
//! policy lookup, the replica pool and the counters cost (ROADMAP item 2).

use super::{fileio_default, register_read, ReadClient, Workload, SMALL_READS};
use crate::inputs::{InputSpec, Inputs};
use crate::layers::{self, Ledger};
use crate::span::{Spanned, Trace};
use flexrpc_engine::{ClientInfo, Engine};
use flexrpc_marshal::WireFormat;
use flexrpc_pipes::fileio_module;
use flexrpc_runtime::{ClientStub, Transport};
use std::sync::Arc;

pub struct EngineInline {
    engine: Arc<Engine>,
    client: ReadClient,
}

/// A one-worker engine serving the benchmark's `read` as service `fileio`.
pub fn build_engine(inputs: &Arc<Inputs>, trace: Option<&Trace>) -> Arc<Engine> {
    let (pres, _) = fileio_default();
    let engine = Engine::builder().workers(1).build();
    let payload = Arc::clone(&inputs.payload);
    let trace = trace.cloned();
    engine
        .register_service("fileio", fileio_module(), "FileIO", pres, WireFormat::Cdr, move |srv| {
            register_read(srv, &payload, trace.as_ref());
        })
        .expect("service registers");
    engine
}

/// The engine's gauges, the same on every workload that runs one.
pub fn engine_gauges(engine: &Engine) -> Vec<(&'static str, f64)> {
    let stats = engine.stats();
    vec![
        ("engine.inline_frac", stats.inline_calls as f64 / stats.calls_served.max(1) as f64),
        ("engine.peak_in_flight", stats.peak_in_flight as f64),
        ("engine.shed", stats.calls_shed as f64),
        ("engine.expired", stats.deadline_expired as f64),
        ("engine.cache_hit_ratio", stats.cache_hit_rate()),
    ]
}

/// What every engine workload expects of the engine's own tallies: it
/// served `calls`, `inline` of them on the caller's thread, none in error.
pub fn engine_invariants(engine: &Engine, calls: u64, inline: u64) -> Vec<String> {
    let stats = engine.stats();
    let mut broken = Vec::new();
    if stats.calls_served != calls {
        broken.push(format!("calls_served {} != {calls} calls", stats.calls_served));
    }
    if stats.inline_calls != inline {
        broken.push(format!("inline_calls {} != {inline}", stats.inline_calls));
    }
    if stats.dispatch_errors + stats.calls_shed + stats.deadline_expired != 0 {
        broken.push("the engine reported errors, sheds or expiries".into());
    }
    broken
}

impl Workload for EngineInline {
    const NAME: &'static str = "engine_inline";
    const SPEC: InputSpec = SMALL_READS;
    const OPS_PER_UNIT: u64 = 1;
    const WARMUP_UNITS: u64 = 100_000;
    const COUNT_UNITS: u64 = 4_160 * 12;
    const TRACED_UNITS: u64 = 2_000;
    const SPANS_PER_UNIT: u64 = 3;

    fn build(inputs: &Arc<Inputs>, trace: Option<Trace>) -> EngineInline {
        let (pres, compiled) = fileio_default();
        let engine = build_engine(inputs, trace.as_ref());
        let conn =
            engine.connect("fileio").client(ClientInfo::of(&pres)).establish().expect("connects");
        let transport: Box<dyn Transport> = match &trace {
            Some(t) => Box::new(Spanned::new(conn, t.client.clone())),
            None => Box::new(conn),
        };
        let stub = ClientStub::new_shared(compiled, WireFormat::Cdr, transport);
        EngineInline { engine, client: ReadClient::new(stub, inputs, trace, None) }
    }

    #[inline]
    fn unit(&mut self, full: bool) -> u64 {
        self.client.read_next(full)
    }

    fn invariants(&self, units: u64) -> Vec<String> {
        engine_invariants(&self.engine, units, units)
    }

    fn gauges(&self, _units: u64) -> Vec<(&'static str, f64)> {
        engine_gauges(&self.engine)
    }

    fn layers(inputs: &Arc<Inputs>, ledger: &mut Ledger) {
        let (_, compiled) = fileio_default();
        layers::runtime_read_layers(ledger, &compiled, WireFormat::Cdr, inputs);
        let engine = build_engine(inputs, None);
        layers::engine_admission_layers(ledger, engine.control());
        layers::traced_call_overhead::<EngineInline>(ledger, inputs);
    }

    fn span_layers(ledger: &mut Ledger) {
        layers::stub_span_layers(ledger);
        layers::engine_transport_span_layer(ledger);
    }
}

impl layers::HasReadClient for EngineInline {
    fn read_client(&mut self) -> &mut ReadClient {
        &mut self.client
    }
}
