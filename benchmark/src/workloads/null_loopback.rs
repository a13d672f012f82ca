//! `null_loopback` — the bare stub: `ClientStub` → `Loopback` →
//! `ServerInterface`, small CDR reads, fused default presentation.
//!
//! The paper's fastest transport: stub marshal, interpreter and server
//! dispatch are nearly all of the call. Every engine number is read
//! against this baseline.

use super::{fileio_default, register_read, ReadClient, Workload, SMALL_READS};
use crate::inputs::{InputSpec, Inputs};
use crate::layers::{self, Ledger};
use crate::span::{Spanned, Trace};
use flexrpc_marshal::WireFormat;
use flexrpc_runtime::transport::Loopback;
use flexrpc_runtime::{ClientStub, ServerInterface, Transport};
use parking_lot::Mutex;
use std::sync::Arc;

pub struct NullLoopback {
    client: ReadClient,
}

impl Workload for NullLoopback {
    const NAME: &'static str = "null_loopback";
    const SPEC: InputSpec = SMALL_READS;
    const OPS_PER_UNIT: u64 = 1;
    const WARMUP_UNITS: u64 = 200_000;
    const COUNT_UNITS: u64 = 4_160 * 24;
    const TRACED_UNITS: u64 = 5_000;
    const SPANS_PER_UNIT: u64 = 3;

    fn build(inputs: &Arc<Inputs>, trace: Option<Trace>) -> NullLoopback {
        let (_, compiled) = fileio_default();
        let mut server = ServerInterface::new_shared(Arc::clone(&compiled), WireFormat::Cdr);
        register_read(&mut server, &inputs.payload, trace.as_ref());
        let loopback = Loopback::new(Arc::new(Mutex::new(server)));
        let transport: Box<dyn Transport> = match &trace {
            Some(t) => Box::new(Spanned::new(loopback, t.client.clone())),
            None => Box::new(loopback),
        };
        let stub = ClientStub::new_shared(compiled, WireFormat::Cdr, transport);
        NullLoopback { client: ReadClient::new(stub, inputs, trace, None) }
    }

    #[inline]
    fn unit(&mut self, full: bool) -> u64 {
        self.client.read_next(full)
    }

    fn invariants(&self, units: u64) -> Vec<String> {
        // No public counter sits on this path; the per-reply checks are
        // the verification.
        let mut broken = Vec::new();
        if self.client.issued != units {
            broken.push(format!("issued {} calls for {units} units", self.client.issued));
        }
        broken
    }

    fn layers(inputs: &Arc<Inputs>, ledger: &mut Ledger) {
        let (_, compiled) = fileio_default();
        layers::runtime_read_layers(ledger, &compiled, WireFormat::Cdr, inputs);
        layers::traced_call_overhead::<NullLoopback>(ledger, inputs);
    }

    fn span_layers(ledger: &mut Ledger) {
        layers::stub_span_layers(ledger);
        layers::runtime_transport_span_layer(ledger);
    }
}

impl layers::HasReadClient for NullLoopback {
    fn read_client(&mut self) -> &mut ReadClient {
        &mut self.client
    }
}
