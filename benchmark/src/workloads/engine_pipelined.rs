//! `engine_pipelined` — the queued path: 32 × `EngineConnection::submit`,
//! then 32 × `CallTicket::wait`, one worker.
//!
//! The engine used the other way round from `engine_inline`: nothing
//! dispatches inline, every job crosses the weighted-fair queue, the
//! submit signal, the worker and a `ReplySlot`.

use super::engine_inline::{build_engine, engine_gauges, engine_invariants};
use super::{fileio_default, marshal_read_request, reply_matches, Workload, SMALL_READS};
use crate::inputs::{Cursor, InputSpec, Inputs};
use crate::layers::{self, Ledger};
use crate::span::{spanned, Trace};
use flexrpc_engine::{CallTicket, ClientInfo, Engine, EngineConnection, Reply};
use flexrpc_marshal::WireFormat;
use flexrpc_runtime::wire::AnyReader;
use std::sync::Arc;

/// Calls in flight per batch (well under the queue depth of 64).
pub const BATCH: usize = 32;

pub struct EnginePipelined {
    engine: Arc<Engine>,
    conn: EngineConnection,
    op_index: usize,
    /// The marshalled request for each generated size, in input order.
    requests: Vec<Vec<u8>>,
    inputs: Arc<Inputs>,
    cursor: Cursor,
    tickets: Vec<(CallTicket, u32)>,
    issued: u64,
    trace: Option<Trace>,
}

/// True if `reply` is `read`'s CDR reply for `want`: payload, then status 0.
fn reply_ok(reply: &Reply, want: &[u8], full: bool) -> bool {
    let Ok(mut reader) = AnyReader::new(WireFormat::Cdr, &reply.body) else { return false };
    let Ok(got) = reader.get_bytes_borrowed() else { return false };
    reply_matches(got, want, full) && reader.get_u32() == Ok(0)
}

impl Workload for EnginePipelined {
    const NAME: &'static str = "engine_pipelined";
    const SPEC: InputSpec = SMALL_READS;
    const OPS_PER_UNIT: u64 = BATCH as u64;
    const WARMUP_UNITS: u64 = 500;
    const COUNT_UNITS: u64 = 4_160 * 4 / BATCH as u64;
    const TRACED_UNITS: u64 = 32;
    const SPANS_PER_UNIT: u64 = 1 + 3 * BATCH as u64;

    fn build(inputs: &Arc<Inputs>, trace: Option<Trace>) -> EnginePipelined {
        let (pres, compiled) = fileio_default();
        let engine = build_engine(inputs, trace.as_ref());
        let conn =
            engine.connect("fileio").client(ClientInfo::of(&pres)).establish().expect("connects");
        let requests = inputs
            .sizes
            .iter()
            .map(|&count| marshal_read_request(&compiled, WireFormat::Cdr, count))
            .collect();
        EnginePipelined {
            engine,
            conn,
            op_index: compiled.op("read").expect("read op").index,
            requests,
            inputs: Arc::clone(inputs),
            cursor: Cursor::new(inputs.sizes.len()),
            tickets: Vec::with_capacity(BATCH),
            issued: 0,
            trace,
        }
    }

    fn unit(&mut self, full: bool) -> u64 {
        let mut failed = 0u64;
        let first = self.issued;
        let start = self.trace.as_ref().map(|t| t.client.now());
        for _ in 0..BATCH {
            let at = self.cursor.advance();
            let (request, count) = (&self.requests[at], self.inputs.sizes[at]);
            let conn = &self.conn;
            let op_index = self.op_index;
            match spanned(&self.trace, "submit", self.issued, || {
                conn.submit(op_index, request, &[])
            }) {
                Ok(ticket) => self.tickets.push((ticket, count)),
                Err(_) => failed += 1,
            }
            self.issued += 1;
        }
        for (seq, (ticket, count)) in (first..).zip(self.tickets.drain(..)) {
            let want = &self.inputs.payload[..count as usize];
            match spanned(&self.trace, "wait", seq, || ticket.wait()) {
                Ok(reply) if reply_ok(&reply, want, full) => {}
                _ => failed += 1,
            }
        }
        if let (Some(t), Some(start)) = (&self.trace, start) {
            t.client.push("batch", first, BATCH as u32, start, t.client.now());
        }
        failed
    }

    fn invariants(&self, units: u64) -> Vec<String> {
        engine_invariants(&self.engine, units * Self::OPS_PER_UNIT, 0)
    }

    fn gauges(&self, _units: u64) -> Vec<(&'static str, f64)> {
        engine_gauges(&self.engine)
    }

    fn layers(inputs: &Arc<Inputs>, ledger: &mut Ledger) {
        let (_, compiled) = fileio_default();
        layers::runtime_read_layers(ledger, &compiled, WireFormat::Cdr, inputs);
        let engine = build_engine(inputs, None);
        layers::engine_admission_layers(ledger, engine.control());
        layers::engine_queue_layers(ledger);
    }

    fn span_layers(ledger: &mut Ledger) {
        let handler = ledger.span_mean("handler");
        ledger.set("runtime.handler_ns", handler);
        ledger.set(
            "runtime.dispatch_self_ns",
            (ledger.get("runtime.dispatch_ns") - handler).max(0.0),
        );
        ledger.set("engine.submit_ns", ledger.span_mean("submit"));
        ledger.set("engine.wait_ns", ledger.span_mean("wait"));
        let per_call = ledger.span_mean("batch") / BATCH as f64;
        ledger.set(
            "engine.queued_overhead_ns",
            (per_call - ledger.get("runtime.dispatch_ns")).max(0.0),
        );
    }
}
