//! Observability experiment — per-stage call breakdown and deterministic
//! trace export.
//!
//! 1. **Per-stage breakdown** of the Figure 6 `read` call on the loopback
//!    transport and over Sun RPC, traced on the wall clock: where a call's
//!    nanoseconds go on this box, printed for the reader only. (Both
//!    transport spans are wall time and include the far side's dispatch;
//!    Sun RPC's is the simulated net's code running, not its simulated
//!    wire — so the two marshal shares are not the paper's transport
//!    ladder; `report ablate` has that.)
//! 2. **Deterministic wire breakdown**: the same Sun RPC workload traced on
//!    the *sim* clock, twice. The exported streams must be byte-identical —
//!    the observability plane is part of the deterministic replay story —
//!    and the per-call transport time is an exact, reproducible number.
//!
//! What tracing *costs* per call is `benchmark/`'s
//! `trace.traced_call_overhead_frac`, measured against a reference kernel.

use flexrpc_core::value::Value;
use flexrpc_marshal::WireFormat;
use flexrpc_net::SimNet;
use flexrpc_runtime::policy::CallOptions;
use flexrpc_runtime::transport::{serve_on_net, Loopback, SunRpc};
use flexrpc_runtime::{ClientStub, ServerInterface};
use flexrpc_trace::{JsonLinesSink, Stage, TimeSource};
use parking_lot::Mutex;
use std::sync::Arc;

use crate::fuse;

/// Reply payload bytes per `read` call: kilobyte-class, a realistic call
/// rather than a degenerate null RPC.
pub(crate) const READ_SIZE: usize = 2048;

/// Calls per breakdown run.
pub const CALLS: usize = 400;

/// Warm-up calls before a breakdown run is measured.
pub(crate) const WARMUP: usize = 50;

fn fileio_server(format: WireFormat) -> Arc<Mutex<ServerInterface>> {
    let compiled = Arc::new(fuse::compile());
    let mut server = ServerInterface::new_shared(compiled, format);
    server
        .on("read", |call| {
            let count = call.u32("count").expect("count arg") as usize;
            call.set("return", Value::Bytes(vec![0u8; count])).expect("set");
            0
        })
        .expect("read registers");
    Arc::new(Mutex::new(server))
}

/// A ready-to-call traced `read` stub on one transport.
pub struct TraceRunner {
    stub: ClientStub,
    frame: Vec<Value>,
    options: CallOptions,
}

/// Which transport a [`TraceRunner`] crosses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// Stub and server in one address space over `Loopback`: marshalled
    /// bytes across a function call. The same work functions called with no
    /// bytes at all are `runtime::samedomain`'s direct call.
    Loopback,
    /// Sun RPC over the simulated network (10 Mbit default config).
    SunRpc,
}

impl Path {
    pub fn label(self) -> &'static str {
        match self {
            Path::Loopback => "loopback",
            Path::SunRpc => "sunrpc",
        }
    }
}

impl TraceRunner {
    /// Builds a stub on `path` that records spans for every call.
    pub fn new(path: Path) -> TraceRunner {
        let format = WireFormat::Cdr;
        let stub = match path {
            Path::Loopback => {
                let server = fileio_server(format);
                ClientStub::new(fuse::compile(), format, Box::new(Loopback::new(server)))
            }
            Path::SunRpc => {
                let net = SimNet::new();
                let ch = net.add_host("client");
                let sh = net.add_host("server");
                serve_on_net(&net, sh, fileio_server(format), 600_001, 1).expect("serves");
                let t = SunRpc::new(Arc::clone(&net), ch, sh, 600_001, 1);
                ClientStub::new(fuse::compile(), format, Box::new(t))
            }
        };
        let mut frame = stub.new_frame("read").expect("frame");
        frame[0] = Value::U32(READ_SIZE as u32);
        TraceRunner { stub, frame, options: CallOptions::default().traced() }
    }

    /// Switches the tracer to wall-clock timestamps (for CPU breakdowns;
    /// explicitly non-deterministic). The ring is sized to hold every
    /// event of a breakdown run, so stage totals never lose evicted spans.
    pub(crate) fn wall_clock(mut self) -> TraceRunner {
        self.stub.enable_trace_with((WARMUP + CALLS) * 4, TimeSource::wall());
        self
    }

    /// One synchronous `read` RPC.
    pub fn call(&mut self) {
        self.frame[0] = Value::U32(READ_SIZE as u32);
        self.stub.call_with("read", &mut self.frame, &self.options).expect("call succeeds");
    }

    /// Per-stage accumulated nanoseconds from the stub's trace.
    pub fn stage_totals(&self) -> [u64; Stage::COUNT] {
        self.stub.trace().map(|t| t.stage_totals()).unwrap_or_default()
    }

    /// The trace exported as JSON lines (for determinism comparison).
    pub(crate) fn export_json(&self) -> String {
        let mut sink = JsonLinesSink::new();
        if let Some(t) = self.stub.trace() {
            t.export(0, &mut sink);
        }
        sink.into_string()
    }
}

/// Per-stage wall-clock breakdown of `CALLS` traced reads on `path`.
#[derive(Debug, Clone)]
pub struct Breakdown {
    /// Accumulated nanoseconds per stage over the run.
    pub totals: [u64; Stage::COUNT],
    /// Sum over all stages.
    pub total_ns: u64,
    /// (marshal + unmarshal) / total — the presentation share.
    pub marshal_share: f64,
}

/// Runs the traced workload on `path` with wall-clock timestamps and
/// returns where the time went.
pub fn wall_breakdown(path: Path) -> Breakdown {
    let mut r = TraceRunner::new(path).wall_clock();
    for _ in 0..WARMUP {
        r.call();
    }
    // The ring was sized to retain warm-up and measured events alike, so
    // subtracting the warm-up totals leaves exactly the CALLS below.
    let totals_before = r.stage_totals();
    for _ in 0..CALLS {
        r.call();
    }
    let after = r.stage_totals();
    let mut totals = [0u64; Stage::COUNT];
    for (i, t) in totals.iter_mut().enumerate() {
        *t = after[i].saturating_sub(totals_before[i]);
    }
    let total_ns: u64 = totals.iter().sum();
    let marshal = totals[Stage::Marshal as usize] + totals[Stage::Unmarshal as usize];
    Breakdown {
        totals,
        total_ns,
        marshal_share: if total_ns > 0 { marshal as f64 / total_ns as f64 } else { 0.0 },
    }
}

/// One deterministic Sun RPC run on the sim clock: `calls` traced reads,
/// returning the exported JSON-lines stream and the per-call transport
/// nanoseconds (exact sim time, not a measurement).
pub fn sim_run(calls: usize) -> (String, f64) {
    let mut r = TraceRunner::new(Path::SunRpc);
    for _ in 0..calls {
        r.call();
    }
    let transport_ns = r.stage_totals()[Stage::Transport as usize];
    (r.export_json(), transport_ns as f64 / calls as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_breakdown_records_client_stages() {
        let b = wall_breakdown(Path::Loopback);
        assert!(b.total_ns > 0, "wall clock charged the spans");
        assert!(b.marshal_share > 0.0 && b.marshal_share <= 1.0);
        assert_eq!(b.totals[Stage::Bind as usize], 0, "no bind span client-side");
    }

    #[test]
    fn sim_runs_are_byte_identical() {
        let (a, ns_a) = sim_run(16);
        let (b, ns_b) = sim_run(16);
        assert_eq!(a, b);
        assert!(ns_a > 0.0 && ns_a == ns_b, "exact, reproducible wire time");
    }
}
