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
use parking_lot::Mutex;
use std::sync::Arc;

flexrpc_trace::instruments! {
    /// Callback fan-out counters: one set can be shared by every channel of
    /// an engine ([`CallbackChannel::with_counters`]).
    #[derive(Clone)]
    pub struct CallbackCounters {
        /// Notifications pushed through the channels.
        delivered: Counter = "engine.callbacks_delivered",
    }
    /// A point-in-time copy of [`CallbackCounters`].
    #[derive(Eq)]
    pub struct CallbackStats;
}

/// The server's handle to one client's callback interface.
///
/// Internally the reverse direction is a full client binding — a
/// [`ClientStub`] whose transport dispatches into the client's registered
/// callback [`ServerInterface`], sharing the connection's sim clock — so
/// callbacks marshal through the same fused programs as forward calls.
pub struct CallbackChannel {
    stub: ClientStub,
    /// This channel's own, unless shared with others
    /// ([`CallbackChannel::with_counters`]) to count a whole engine's
    /// fan-out.
    counters: CallbackCounters,
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
            counters: CallbackCounters::default(),
        }
    }

    /// Shares `counters` with other channels (one set for a whole engine's
    /// callback fan-out).
    pub fn with_counters(mut self, counters: &CallbackCounters) -> CallbackChannel {
        self.counters = counters.clone();
        self
    }

    /// Pushes one callback: a `[oneway]` notification into the client's
    /// callback interface. The operation must be declared `[oneway]` in
    /// the callback presentation.
    pub fn deliver(&mut self, op: &str, frame: &mut [Value]) -> Result<()> {
        self.stub.notify(op, frame)?;
        self.counters.delivered.inc();
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
        f.debug_struct("CallbackChannel")
            .field("delivered", &self.counters.delivered.get())
            .finish()
    }
}
