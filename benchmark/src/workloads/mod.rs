//! The six workloads and what they share.
//!
//! Every workload is a closed loop with one client thread and one
//! connection (plus at most one engine worker thread): a *unit* is what
//! the latency pass times, and it completes `OPS_PER_UNIT` verified ops.
//! A workload touches the program only through public APIs and sees only
//! the generated [`Inputs`].

pub mod bind_churn;
pub mod engine_inline;
pub mod engine_pipelined;
pub mod null_loopback;
pub mod pipe_ipc_bulk;
pub mod sunrpc_tagged;

use crate::inputs::{Cursor, InputSpec, Inputs};
use crate::layers::Ledger;
use crate::span::Trace;
use flexrpc_core::present::InterfacePresentation;
use flexrpc_core::program::CompiledInterface;
use flexrpc_core::value::Value;
use flexrpc_marshal::WireFormat;
use flexrpc_pipes::fileio_module;
use flexrpc_runtime::policy::CallOptions;
use flexrpc_runtime::{ClientStub, ServerInterface};
use std::sync::atomic::Ordering;
use std::sync::Arc;

pub const NAMES: [&str; 6] = [
    null_loopback::NullLoopback::NAME,
    engine_inline::EngineInline::NAME,
    engine_pipelined::EnginePipelined::NAME,
    sunrpc_tagged::SunRpcTagged::NAME,
    pipe_ipc_bulk::PipeIpcBulk::NAME,
    bind_churn::BindChurn::NAME,
];

pub trait Workload: Sized {
    const NAME: &'static str;
    const SPEC: InputSpec;
    /// Ops one unit completes (what `ops_per_s` counts).
    const OPS_PER_UNIT: u64;
    /// Fixed warm-up, part of `setup_s`.
    const WARMUP_UNITS: u64;
    /// Fixed count-pass length: a whole number of input cycles, so every
    /// seed counts the same size mix.
    const COUNT_UNITS: u64;
    /// Units per traced chunk (bounded so the span buffers never fill).
    const TRACED_UNITS: u64;
    /// Spans one unit records, both logs together (sizes the buffers).
    const SPANS_PER_UNIT: u64;

    /// Builds the world: parse, compile, engine/net/kernel build, register,
    /// connect. With a [`Trace`], transports and handlers are wrapped.
    fn build(inputs: &Arc<Inputs>, trace: Option<Trace>) -> Self;

    /// Runs the next unit and returns how many of its ops failed (errored,
    /// were refused, or returned a wrong reply). `full` compares every
    /// reply byte; otherwise length and both end bytes are checked.
    fn unit(&mut self, full: bool) -> u64;

    /// Checks the workload's invariants from the program's public stats,
    /// given that `units` units ran since `build`. Returns violations.
    fn invariants(&self, units: u64) -> Vec<String>;

    /// Cumulative public counters the count pass turns into per-op
    /// metrics: `(metric name, counter value)`.
    fn counters(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }

    /// Per-layer metrics that are not per-op counter deltas: gauges and
    /// ratios read from public stats after the count pass.
    fn gauges(&self, _units: u64) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    /// Times this workload's layers directly, through their public
    /// functions, with this workload's inputs.
    fn layers(inputs: &Arc<Inputs>, ledger: &mut Ledger);

    /// Derives the span-based per-layer metrics from the traced rounds.
    fn span_layers(ledger: &mut Ledger);
}

/// The default presentation of FileIO and its compilation: what every
/// read-driven workload binds with.
pub fn fileio_default() -> (InterfacePresentation, Arc<CompiledInterface>) {
    let module = fileio_module();
    let iface = module.interface("FileIO").expect("FileIO exists");
    let pres = InterfacePresentation::default_for(&module, iface).expect("defaults");
    let compiled = CompiledInterface::compile(&module, iface, &pres).expect("compiles");
    (pres, Arc::new(compiled))
}

/// Registers the benchmark's `read` work function: reply with the first
/// `count` bytes of the seeded payload. Traced, it records a `handler`
/// span numbered by arrival order.
pub fn register_read(srv: &mut ServerInterface, payload: &Arc<[u8]>, trace: Option<&Trace>) {
    let payload = Arc::clone(payload);
    let trace = trace.cloned();
    srv.on("read", move |call| {
        let start = trace.as_ref().map(|t| t.server.now());
        let count = call.u32("count").expect("count arg") as usize;
        let Some(bytes) = payload.get(..count) else { return 1 };
        call.set("return", Value::Bytes(bytes.to_vec())).expect("return slot");
        if let (Some(t), Some(start)) = (&trace, start) {
            let seq = t.handled.fetch_add(1, Ordering::Relaxed);
            t.server.push("handler", seq, 1, start, t.server.now());
        }
        0
    })
    .expect("read registers");
}

/// True if `got` is the expected reply payload.
#[inline]
pub fn reply_matches(got: &[u8], want: &[u8], full: bool) -> bool {
    if got.len() != want.len() {
        return false;
    }
    if full {
        return got == want;
    }
    match (got.first(), got.last()) {
        (Some(a), Some(b)) => *a == want[0] && *b == want[want.len() - 1],
        _ => true,
    }
}

/// A `read` client: stub, reused frame, and the cursor into the inputs.
pub struct ReadClient {
    pub stub: ClientStub,
    frame: Vec<Value>,
    op_index: usize,
    count_slot: usize,
    return_slot: usize,
    inputs: Arc<Inputs>,
    cursor: Cursor,
    /// Ops issued since the world was built (the request sequence number).
    pub issued: u64,
    trace: Option<Trace>,
    /// `Some` routes calls through `call_index_with` (the policy path, the
    /// only one that tags at-most-once calls).
    options: Option<CallOptions>,
}

impl ReadClient {
    pub fn new(
        stub: ClientStub,
        inputs: &Arc<Inputs>,
        trace: Option<Trace>,
        options: Option<CallOptions>,
    ) -> ReadClient {
        let op = stub.op("read").expect("read op");
        let op_index = op.index;
        let count_slot = op.slots.slot("count").expect("count slot").0;
        let return_slot = op.slots.slot("return").expect("return slot").0;
        let frame = stub.new_frame("read").expect("frame");
        ReadClient {
            stub,
            frame,
            op_index,
            count_slot,
            return_slot,
            inputs: Arc::clone(inputs),
            cursor: Cursor::new(inputs.sizes.len()),
            issued: 0,
            trace,
            options,
        }
    }

    /// Routes calls through `call_index_with` under `options`.
    pub fn set_options(&mut self, options: CallOptions) {
        self.options = Some(options);
    }

    /// Continues another client's walk through the sizes and its request
    /// numbering (`bind_churn` builds a client per cycle).
    pub fn resume(&mut self, cursor: Cursor, issued: u64) {
        self.cursor = cursor;
        self.issued = issued;
    }

    pub fn cursor(&self) -> Cursor {
        self.cursor
    }

    /// One verified `read(count)` with the next generated size; returns 1
    /// if it failed.
    #[inline]
    pub fn read_next(&mut self, full: bool) -> u64 {
        let count = self.inputs.sizes[self.cursor.advance()];
        self.frame[self.count_slot] = Value::U32(count);
        let seq = self.issued;
        self.issued += 1;
        let (stub, frame, op_index) = (&mut self.stub, &mut self.frame, self.op_index);
        let status = crate::span::spanned(&self.trace, "stub.call", seq, || match &self.options {
            Some(options) => stub.call_index_with(op_index, frame, options).ok(),
            None => stub.call_index(op_index, frame).ok(),
        });
        let want = &self.inputs.payload[..count as usize];
        let ok = status == Some(0)
            && self.frame[self.return_slot]
                .as_bytes()
                .is_some_and(|got| reply_matches(got, want, full));
        u64::from(!ok)
    }
}

/// Marshals `read(count)` exactly as the client stub would.
pub fn marshal_read_request(
    compiled: &CompiledInterface,
    format: WireFormat,
    count: u32,
) -> Vec<u8> {
    let op = compiled.op("read").expect("read op");
    let mut frame = op.slots.new_frame();
    frame[op.slots.slot("count").expect("count slot").0] = Value::U32(count);
    let mut writer = flexrpc_runtime::wire::AnyWriter::new(format);
    flexrpc_runtime::interp::marshal(
        &op.request_marshal,
        &frame,
        &[],
        &mut writer,
        &flexrpc_runtime::HookMap::new(),
        &mut Vec::new(),
    )
    .expect("request marshals");
    writer.into_bytes()
}

/// The read-size specs.
pub const SMALL_READS: InputSpec =
    InputSpec { size_lo: 32, size_hi: 96, size_repeats: 64, alternatives: 1, pick_repeats: 1 };
