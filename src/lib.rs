//! `flexrpc` — flexible-presentation RPC.
//!
//! Facade crate re-exporting the whole workspace. See the README for the
//! architecture overview and `DESIGN.md` for the paper-to-module map.
//!
//! For everyday use, `use flexrpc::prelude::*` pulls in the common
//! surface: interface compilation, client/server bindings, the serving
//! engine, and the per-call policy types ([`CallOptions`](prelude::CallOptions),
//! [`RetryPolicy`](prelude::RetryPolicy)) and the one error type,
//! [`RpcError`], classified by [`RpcError::kind`] into the [`ErrorKind`]
//! taxonomy.

pub use flexrpc_clock as clock;
pub use flexrpc_cluster as cluster;
pub use flexrpc_codegen as codegen;
pub use flexrpc_control as control;
pub use flexrpc_core as core;
pub use flexrpc_engine as engine;
pub use flexrpc_fbufs as fbufs;
pub use flexrpc_idl as idl;
pub use flexrpc_kernel as kernel;
pub use flexrpc_marshal as marshal;
pub use flexrpc_net as net;
pub use flexrpc_nfs as nfs;
pub use flexrpc_pipes as pipes;
pub use flexrpc_runtime as runtime;
pub use flexrpc_stream as stream;
pub use flexrpc_trace as trace;

// The one error type, re-exported at the crate root: every layer's failure
// folds into `RpcError` with its detail intact, and its `ErrorKind` tells a
// caller the only thing policy code needs — whether retrying can help.
pub use flexrpc_runtime::{ErrorKind, RpcError};

/// The common surface in one import: `use flexrpc::prelude::*`.
///
/// Everything a typical program touches — define an interface
/// ([`corba`](prelude::corba)/[`pdl`](prelude::pdl) +
/// [`apply_pdl`](prelude::apply_pdl)), compile it
/// ([`CompiledInterface`](prelude::CompiledInterface)), bind it
/// ([`ClientStub`](prelude::ClientStub),
/// [`ServerInterface`](prelude::ServerInterface),
/// [`Loopback`](prelude::Loopback)), serve it ([`Engine`](prelude::Engine)),
/// and govern calls ([`CallOptions`](prelude::CallOptions),
/// [`RetryPolicy`](prelude::RetryPolicy), [`RpcError`], [`ErrorKind`]) on the
/// deterministic [`SimClock`](clock::SimClock).
pub mod prelude {
    pub use crate::control::{ControlPlane, Policy, PolicyHandle, TenantMetrics, WfqQueue};
    pub use crate::core::annot::apply_pdl;
    pub use crate::core::present::{InterfacePresentation, Trust};
    pub use crate::core::program::{CompiledInterface, CompiledOp};
    pub use crate::core::value::Value;
    pub use crate::engine::{BreakerStats, ClientInfo, Engine, EngineConnection};
    pub use crate::idl::{corba, pdl};
    pub use crate::marshal::WireFormat;
    pub use crate::runtime::transport::Loopback;
    pub use crate::runtime::{
        CallOptions, CallTag, ClientStub, ErrorKind, ReplyCache, ReplyCacheStats, RetryPolicy,
        RpcError, ServerInterface, Supervisor, SupervisorStats, TenantId,
    };
    pub use crate::stream::{CallbackChannel, CreditWindow, StreamSender};
    pub use crate::trace::{
        CallTrace, ChromeTraceSink, Counter, Histogram, JsonLinesSink, MetricsRegistry,
        MetricsSnapshot, SharedCallTrace, Stage, TimeSource, TraceSink,
    };
    pub use flexrpc_clock::{Fault, FaultInjector, SimClock};
    // The synchronization handles server construction needs (a `Loopback`
    // server lives behind `Arc<Mutex<..>>`).
    pub use parking_lot::Mutex;
    pub use std::sync::Arc;
}
