//! `sunrpc_tagged` — the paper's slowest transport plus the failure-model
//! layer: XDR reads of 512..=1536 bytes, at-most-once tagged, over `SunRpc`
//! → `SimNet` → `serve_on_net`, the server keeping a `ReplyCache` (TTL 1 s
//! on the net's sim clock).
//!
//! Record marking, the credential tag, the simulated wire's copies and the
//! reply cache's record path. No engine, no second thread.

use super::{fileio_default, register_read, ReadClient, Workload};
use crate::inputs::{InputSpec, Inputs};
use crate::layers::{self, Ledger};
use crate::span::{Spanned, Trace};
use flexrpc_marshal::WireFormat;
use flexrpc_net::SimNet;
use flexrpc_runtime::policy::CallOptions;
use flexrpc_runtime::transport::{serve_on_net, SunRpc};
use flexrpc_runtime::{ClientStub, ReplyCache, ServerInterface, Transport};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

const PROG: u32 = 600_001;
const VERS: u32 = 1;

pub struct SunRpcTagged {
    net: Arc<SimNet>,
    cache: Arc<ReplyCache>,
    client: ReadClient,
}

impl Workload for SunRpcTagged {
    const NAME: &'static str = "sunrpc_tagged";
    const SPEC: InputSpec = InputSpec {
        size_lo: 512,
        size_hi: 1536,
        size_repeats: 4,
        alternatives: 1,
        pick_repeats: 1,
    };
    const OPS_PER_UNIT: u64 = 1;
    const WARMUP_UNITS: u64 = 40_000;
    const COUNT_UNITS: u64 = 4_100 * 10;
    const TRACED_UNITS: u64 = 600;
    const SPANS_PER_UNIT: u64 = 3;

    fn build(inputs: &Arc<Inputs>, trace: Option<Trace>) -> SunRpcTagged {
        let (_, compiled) = fileio_default();
        let net = SimNet::new();
        let client_host = net.add_host("client");
        let server_host = net.add_host("server");
        let cache = ReplyCache::new(Arc::clone(net.clock()), Duration::from_secs(1));
        let mut server = ServerInterface::new_shared(Arc::clone(&compiled), WireFormat::Xdr);
        register_read(&mut server, &inputs.payload, trace.as_ref());
        server.set_reply_cache(Arc::clone(&cache));
        serve_on_net(&net, server_host, Arc::new(Mutex::new(server)), PROG, VERS).expect("serves");
        let sunrpc = SunRpc::new(Arc::clone(&net), client_host, server_host, PROG, VERS);
        let transport: Box<dyn Transport> = match &trace {
            Some(t) => Box::new(Spanned::new(sunrpc, t.client.clone())),
            None => Box::new(sunrpc),
        };
        let mut stub = ClientStub::new_shared(compiled, WireFormat::Xdr, transport);
        stub.enable_at_most_once();
        // Only the policy path (`call_index_with`) tags calls.
        let client = ReadClient::new(stub, inputs, trace, Some(CallOptions::default()));
        SunRpcTagged { net, cache, client }
    }

    #[inline]
    fn unit(&mut self, full: bool) -> u64 {
        self.client.read_next(full)
    }

    fn invariants(&self, units: u64) -> Vec<String> {
        let stats = self.cache.stats();
        let mut broken = Vec::new();
        if stats.executions != units {
            broken.push(format!("reply-cache executions {} != {units} ops", stats.executions));
        }
        if stats.suppressions != 0 {
            broken.push(format!("reply-cache suppressions {} != 0", stats.suppressions));
        }
        if self.net.stats().messages.get() != units {
            broken.push(format!("net messages {} != {units} ops", self.net.stats().messages.get()));
        }
        broken
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        let stats = self.net.stats();
        vec![
            ("net.sim_wire_ns_per_op", self.net.wire_ns()),
            ("net.packets_per_op", stats.packets.get()),
            ("net.bytes_per_op", stats.bytes.get()),
        ]
    }

    fn gauges(&self, _units: u64) -> Vec<(&'static str, f64)> {
        vec![("runtime.replycache_entries", self.cache.stats().entries as f64)]
    }

    fn layers(inputs: &Arc<Inputs>, ledger: &mut Ledger) {
        let (_, compiled) = fileio_default();
        layers::runtime_read_layers(ledger, &compiled, WireFormat::Xdr, inputs);
        // One op's exact wire charge, from a throwaway world: it paces the
        // reply-cache micro-benchmark so its TTL holds as many entries.
        let mut probe = SunRpcTagged::build(inputs, None);
        let cycle = inputs.sizes.len() as u64;
        for _ in 0..cycle {
            probe.unit(false);
        }
        let wire_ns_per_op = probe.net.wire_ns() / cycle;
        layers::net_layers(ledger, &compiled, WireFormat::Xdr, inputs, wire_ns_per_op);
        layers::traced_call_overhead::<SunRpcTagged>(ledger, inputs);
    }

    fn span_layers(ledger: &mut Ledger) {
        layers::stub_span_layers(ledger);
        layers::runtime_transport_span_layer(ledger);
    }
}

impl layers::HasReadClient for SunRpcTagged {
    fn read_client(&mut self) -> &mut ReadClient {
        &mut self.client
    }
}
