//! The sending half of a `[stream(window)]` operation.
//!
//! Frames ride the existing unary machinery — each frame is one call
//! through the stub's fused marshal program, tagged for at-most-once when
//! the binding enables it — with a [`CreditWindow`] in front: the sender
//! may run at most `window` frames ahead of the receiver, and blocks
//! deterministically on the sim clock when it gets there.

use crate::credit::CreditWindow;
use flexrpc_clock::SimClock;
use flexrpc_core::compat::negotiate_call_shape;
use flexrpc_core::present::CallShape;
use flexrpc_core::value::Value;
use flexrpc_runtime::{CallOptions, ClientStub, Result, RpcError, ShapeMisuse};
use flexrpc_trace::MetricsRegistry;
use std::sync::Arc;

/// A bound stream: a [`ClientStub`] operation plus the credit window both
/// ends negotiated for it.
///
/// [`StreamSender::send`] claims a credit (stalling on the sim clock if
/// the window is exhausted), pushes one frame as a call on the underlying
/// stub, and schedules the credit's return `drain_ns` after the receiver
/// got the frame — the deterministic model of a receiver that drains one
/// frame per `drain_ns`. Frame sequence numbers are FIFO by construction:
/// one sender, one counter, one frame in flight through the stub at a time.
pub struct StreamSender {
    stub: ClientStub,
    op: String,
    op_index: usize,
    clock: Arc<SimClock>,
    credit: CreditWindow,
    /// Receiver drain time per frame (sim ns): when each credit returns.
    drain_ns: u64,
    /// The last scheduled credit return — keeps returns non-decreasing.
    last_return_ns: u64,
    /// Next frame sequence number.
    seq: u64,
    options: CallOptions,
}

impl StreamSender {
    /// Binds a sender over `stub` for `op`, with `negotiated` the call
    /// shape both ends settled on at bind time (e.g.
    /// [`EngineConnection::negotiated_shape`](flexrpc_engine::EngineConnection::negotiated_shape)).
    ///
    /// Fails unless the negotiated shape is `Stream`, the stub's own
    /// presentation declares the op `[stream]`, and the transport has a
    /// sim clock (credit stalls are *times*; they need a clock to block
    /// on).
    pub fn over(
        stub: ClientStub,
        op: &str,
        negotiated: CallShape,
        drain_ns: u64,
    ) -> Result<StreamSender> {
        let (op_index, client_shape) = stub.op(op).map(|cop| (cop.index, cop.call_shape))?;
        // Both the negotiated shape and the client's own must be a stream.
        let not_a_stream = |shape| {
            RpcError::ShapeMisuse(ShapeMisuse::Entry { op: op_index, shape, entry: "stream" })
        };
        let CallShape::Stream { window } = negotiated else {
            return Err(not_a_stream(negotiated));
        };
        if !matches!(client_shape, CallShape::Stream { .. }) {
            return Err(not_a_stream(client_shape));
        }
        let Some(clock) = stub.clock() else {
            return Err(RpcError::NoClock("credit stalls"));
        };
        let credit = CreditWindow::new(window, Arc::clone(&clock));
        Ok(StreamSender {
            stub,
            op: op.to_owned(),
            op_index,
            clock,
            credit,
            drain_ns,
            last_return_ns: 0,
            seq: 0,
            options: CallOptions::default(),
        })
    }

    /// Binds a sender against a peer whose shape declaration is known but
    /// was not negotiated by an engine bind (plain transports): reconciles
    /// the stub's declared shape with `server_shape` right here, exactly
    /// as the engine would at establish time.
    pub fn negotiate(
        stub: ClientStub,
        op: &str,
        server_shape: CallShape,
        drain_ns: u64,
    ) -> Result<StreamSender> {
        let (op_index, client) = stub.op(op).map(|cop| (cop.index, cop.call_shape))?;
        let Some(shape) = negotiate_call_shape(client, server_shape) else {
            let misuse = ShapeMisuse::Mismatch { op: op_index, client, server: server_shape };
            return Err(RpcError::ShapeMisuse(misuse));
        };
        StreamSender::over(stub, op, shape, drain_ns)
    }

    /// Call options applied to every frame (retry policy, deadline,
    /// tracing of the per-frame marshal/transport spans).
    pub fn with_options(mut self, options: CallOptions) -> StreamSender {
        self.options = options;
        self
    }

    /// Adopts the stream's counters
    /// ([`StreamCounters`](crate::credit::StreamCounters)) into `registry`.
    pub fn register_metrics(&self, registry: &MetricsRegistry) {
        self.credit.register_metrics(registry);
    }

    /// The underlying stub (e.g. to enable at-most-once tagging, which is
    /// what makes frames survive connection loss without loss or
    /// duplication).
    pub fn stub_mut(&mut self) -> &mut ClientStub {
        &mut self.stub
    }

    /// The negotiated credit window.
    pub fn window(&self) -> u32 {
        self.credit.window()
    }

    /// The credit window's accounting (stalls, waited time, outstanding).
    pub fn credit(&self) -> &CreditWindow {
        &self.credit
    }

    /// Frames sent so far.
    pub fn frames_sent(&self) -> u64 {
        self.credit.counters.frames.get()
    }

    /// A fresh call frame for the stream's operation.
    pub fn new_frame(&self) -> Result<Vec<Value>> {
        self.stub.new_frame(&self.op)
    }

    /// Pushes one frame: claims a credit (stalling deterministically if
    /// the window is exhausted), runs the call, schedules the credit's
    /// return. Returns the frame's sequence number.
    pub fn send(&mut self, frame: &mut [Value]) -> Result<u64> {
        self.credit.acquire();
        self.stub.call_index_with(self.op_index, frame, &self.options)?;
        let now = self.clock.now_ns();
        // The receiver drains frames in order, one per `drain_ns`, starting
        // when the frame lands — or when it finished the previous frame,
        // whichever is later.
        self.last_return_ns = self.last_return_ns.max(now) + self.drain_ns;
        self.credit.consume(self.last_return_ns);
        let seq = self.seq;
        self.seq += 1;
        Ok(seq)
    }

    /// End-of-stream barrier: blocks (on the sim clock) until the receiver
    /// has drained every outstanding frame. Returns the time waited.
    pub fn drain(&mut self) -> u64 {
        self.credit.drain()
    }
}

impl std::fmt::Debug for StreamSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamSender")
            .field("op", &self.op)
            .field("window", &self.credit.window())
            .field("seq", &self.seq)
            .finish()
    }
}
