//! Server→client callbacks on an existing duplex connection.
//!
//! The client registers a *callback interface* — a [`ServerInterface`] of
//! its own, with `[oneway]` operations — when it binds. A
//! [`CallbackChannel`] is the server side's handle to it: work functions
//! capture the channel and push notifications back through the reverse
//! direction of the connection, using the same compiled marshal programs
//! and the same datagram path as any `[oneway]` send. No second
//! connection, no reply machinery.

use flexrpc_clock::SimClock;
use flexrpc_core::value::Value;
use flexrpc_runtime::transport::Loopback;
use flexrpc_runtime::{ClientStub, Result, ServerInterface};
use flexrpc_trace::{Counter, MetricsRegistry};
use parking_lot::Mutex;
use std::sync::Arc;

/// The server's handle to one client's callback interface.
///
/// Internally the reverse direction is a full client binding — a
/// [`ClientStub`] whose transport dispatches into the client's registered
/// callback [`ServerInterface`], sharing the connection's sim clock — so
/// callbacks marshal through the same fused programs as forward calls.
pub struct CallbackChannel {
    stub: ClientStub,
    /// Notifications pushed (`engine.callbacks_delivered`). Share one cell
    /// across channels ([`CallbackChannel::with_delivered`]) to count a
    /// whole engine's fan-out.
    delivered: Counter,
}

impl CallbackChannel {
    /// Opens the reverse direction to `receiver` (the client's callback
    /// interface), on the connection's shared `clock`.
    pub fn new(receiver: &Arc<Mutex<ServerInterface>>, clock: Arc<SimClock>) -> CallbackChannel {
        let (compiled, format) = {
            let r = receiver.lock();
            (r.compiled_arc(), r.format())
        };
        let transport = Loopback::with_clock(Arc::clone(receiver), clock);
        CallbackChannel {
            stub: ClientStub::new_shared(compiled, format, Box::new(transport)),
            delivered: Counter::default(),
        }
    }

    /// Shares the delivery counter with other channels (one cell for a
    /// whole engine's callback fan-out).
    pub fn with_delivered(mut self, counter: &Counter) -> CallbackChannel {
        self.delivered = counter.clone();
        self
    }

    /// Adopts the delivery counter into `registry` as
    /// `engine.callbacks_delivered`.
    pub fn register_metrics(&self, registry: &MetricsRegistry) {
        registry.adopt_counter("engine.callbacks_delivered", &self.delivered);
    }

    /// Pushes one callback: a `[oneway]` notification into the client's
    /// callback interface. The operation must be declared `[oneway]` in
    /// the callback presentation.
    pub fn deliver(&mut self, op: &str, frame: &mut [Value]) -> Result<()> {
        self.stub.notify(op, frame)?;
        self.delivered.inc();
        Ok(())
    }

    /// A fresh call frame for a callback operation.
    pub fn new_frame(&self, op: &str) -> Result<Vec<Value>> {
        self.stub.new_frame(op)
    }

    /// The reverse-direction stub (e.g. to enable at-most-once tagging or
    /// span tracing on callbacks).
    pub fn stub_mut(&mut self) -> &mut ClientStub {
        &mut self.stub
    }
}

impl std::fmt::Debug for CallbackChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CallbackChannel").field("delivered", &self.delivered.get()).finish()
    }
}
