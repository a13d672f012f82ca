//! `bind_churn` — from text to first reply, over and over, against one
//! long-lived engine: `corba::parse`, `pdl::parse`, `default_for`,
//! `apply_pdl`, `CompiledInterface::compile`,
//! `connect().client_presentation().establish()`, 4 calls, drop. The 6
//! combinations (2 PDLs × 3 trust levels) come in seeded order.
//!
//! Bind is the paper's mechanism (combination signatures) and the
//! supervisor's failover path. Here idl / core / `engine::cache` are the
//! workload instead of the set-up, so work moved from call time into bind
//! time shows up somewhere.

use super::engine_inline::{build_engine, engine_gauges, engine_invariants};
use super::{ReadClient, Workload, SMALL_READS};
use crate::inputs::{Cursor, InputSpec, Inputs};
use crate::layers::{self, Ledger};
use crate::span::{spanned, Spanned, Trace};
use flexrpc_core::annot::apply_pdl;
use flexrpc_core::present::{InterfacePresentation, Trust};
use flexrpc_core::program::CompiledInterface;
use flexrpc_engine::Engine;
use flexrpc_marshal::WireFormat;
use flexrpc_pipes::FILEIO_IDL;
use flexrpc_runtime::{ClientStub, Transport};
use std::sync::Arc;

/// Two client-side presentations of `read` that leave its reply a plain
/// byte buffer, so every combination is verified the same way.
const PDLS: [&str; 2] = [
    "[comm_status] sequence<octet> FileIO_read(unsigned long count);",
    "[idempotent] sequence<octet> FileIO_read(unsigned long count);",
];
const TRUSTS: [Trust; 3] = [Trust::None, Trust::Leaky, Trust::LeakyUnprotected];
const COMBINATIONS: u8 = (PDLS.len() * TRUSTS.len()) as u8;
const CALLS_PER_CYCLE: u64 = 4;

pub struct BindChurn {
    engine: Arc<Engine>,
    inputs: Arc<Inputs>,
    cursor: Cursor,
    /// Calls issued so far; the read cursor carries over between cycles.
    calls: u64,
    size_cursor: Cursor,
    trace: Option<Trace>,
}

impl Workload for BindChurn {
    const NAME: &'static str = "bind_churn";
    const SPEC: InputSpec =
        InputSpec { alternatives: COMBINATIONS, pick_repeats: 128, ..SMALL_READS };
    const OPS_PER_UNIT: u64 = 1;
    const WARMUP_UNITS: u64 = 4_000;
    const COUNT_UNITS: u64 = 768 * 4;
    const TRACED_UNITS: u64 = 80;
    const SPANS_PER_UNIT: u64 = 7 + 3 * CALLS_PER_CYCLE;

    fn build(inputs: &Arc<Inputs>, trace: Option<Trace>) -> BindChurn {
        BindChurn {
            engine: build_engine(inputs, trace.as_ref()),
            inputs: Arc::clone(inputs),
            cursor: Cursor::new(inputs.picks.len()),
            calls: 0,
            size_cursor: Cursor::new(inputs.sizes.len()),
            trace,
        }
    }

    fn unit(&mut self, full: bool) -> u64 {
        let pick = usize::from(self.inputs.picks[self.cursor.advance()]);
        let (pdl_text, trust) = (PDLS[pick % PDLS.len()], TRUSTS[pick / PDLS.len()]);
        let (trace, seq) = (&self.trace, self.calls);
        let start = trace.as_ref().map(|t| t.client.now());

        let Ok(module) = spanned(trace, "idl.corba_parse", seq, || {
            flexrpc_idl::corba::parse("fileio", FILEIO_IDL)
        }) else {
            return 1;
        };
        let Ok(pdl) = spanned(trace, "idl.pdl_parse", seq, || flexrpc_idl::pdl::parse(pdl_text))
        else {
            return 1;
        };
        let Some(iface) = module.interface("FileIO") else { return 1 };
        let Ok(base) = spanned(trace, "core.default_for", seq, || {
            InterfacePresentation::default_for(&module, iface)
        }) else {
            return 1;
        };
        let Ok(mut pres) =
            spanned(trace, "core.apply_pdl", seq, || apply_pdl(&module, iface, &base, &pdl))
        else {
            return 1;
        };
        pres.trust = trust;
        let Ok(compiled) = spanned(trace, "core.compile", seq, || {
            CompiledInterface::compile(&module, iface, &pres)
        }) else {
            return 1;
        };
        let Ok(conn) = spanned(trace, "engine.establish", seq, || {
            self.engine.connect("fileio").client_presentation(&pres).establish()
        }) else {
            return 1;
        };
        let transport: Box<dyn Transport> = match trace {
            Some(t) => Box::new(Spanned::starting_at(conn, t.client.clone(), seq)),
            None => Box::new(conn),
        };
        let stub = ClientStub::new(compiled, WireFormat::Cdr, transport);
        let mut client = ReadClient::new(stub, &self.inputs, trace.clone(), None);
        client.resume(self.size_cursor, seq);
        let mut failed = 0;
        for _ in 0..CALLS_PER_CYCLE {
            failed += client.read_next(full);
        }
        self.size_cursor = client.cursor();
        self.calls += CALLS_PER_CYCLE;
        drop(client);
        if let (Some(t), Some(start)) = (trace, start) {
            t.client.push("cycle", seq, CALLS_PER_CYCLE as u32, start, t.client.now());
        }
        failed.min(1)
    }

    fn invariants(&self, units: u64) -> Vec<String> {
        let calls = units * CALLS_PER_CYCLE;
        let mut broken = engine_invariants(&self.engine, calls, calls);
        let compilations = self.engine.cache().compilations();
        if compilations > u64::from(COMBINATIONS) {
            broken.push(format!("{compilations} compilations for {COMBINATIONS} combinations"));
        }
        let connections = self.engine.stats().connections;
        if connections != units {
            broken.push(format!("{connections} connections for {units} cycles"));
        }
        broken
    }

    fn gauges(&self, _units: u64) -> Vec<(&'static str, f64)> {
        engine_gauges(&self.engine)
    }

    fn layers(inputs: &Arc<Inputs>, ledger: &mut Ledger) {
        let (_, compiled) = super::fileio_default();
        layers::runtime_read_layers(ledger, &compiled, WireFormat::Cdr, inputs);
        layers::cache_layers(ledger);
    }

    fn span_layers(ledger: &mut Ledger) {
        layers::stub_span_layers(ledger);
        layers::engine_transport_span_layer(ledger);
        for (metric, span) in [
            ("idl.corba_parse_ns", "idl.corba_parse"),
            ("idl.pdl_parse_ns", "idl.pdl_parse"),
            ("core.default_for_ns", "core.default_for"),
            ("core.apply_pdl_ns", "core.apply_pdl"),
            ("core.compile_ns", "core.compile"),
            ("engine.establish_ns", "engine.establish"),
        ] {
            ledger.set(metric, ledger.span_mean(span));
        }
    }
}
