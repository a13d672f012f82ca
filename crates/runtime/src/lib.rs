//! The flexrpc stub runtime: interpreters, transports, and bindings.
//!
//! `flexrpc-core` compiles (interface × presentation) into threaded-code
//! [`flexrpc_core::program::StubProgram`]s; this crate executes them against
//! real buffers and real transports:
//!
//! * [`interp`] — the marshal-op interpreter over [`wire`]'s format-erased
//!   writers/readers, with `[special]` user hooks ([`hooks`]).
//! * [`server`] — server-side dispatch: unmarshal, invoke the work function
//!   (giving sink-mode payloads a [`server::ReplySink`] to write the reply
//!   payload directly, the `dealloc(never)`/`[special]` path), marshal.
//! * [`client`] — the client stub: marshal, transport call, unmarshal, with
//!   status surfaced per the `[comm_status]` presentation.
//! * [`transport`] — loopback (direct dispatch), the simulated kernel's
//!   streamlined IPC path, and Sun RPC over the simulated network.
//! * [`samedomain`] — the §4.4 short-circuit path: no marshalling at all;
//!   copy and allocation decisions are negotiated at bind time from the two
//!   endpoints' presentation attributes via [`flexrpc_core::compat`].
//!
//! The load-bearing invariant — *endpoints compiled from different
//! presentations of the same interface always interoperate* — is pinned by
//! an interop property test in `tests/`.

pub mod client;
pub mod error;
pub mod hooks;
pub mod interp;
pub mod policy;
pub mod replycache;
pub mod samedomain;
pub mod server;
pub mod supervisor;
pub mod transport;
pub mod wire;

pub use client::{ClientStub, DEFAULT_TRACE_CAPACITY};
pub use error::{Disconnect, ErrorKind, RpcError, ShapeMisuse};
pub use flexrpc_marshal::MarshalError;
pub use hooks::{HookMap, SpecialMarshal};
pub use policy::{CallControl, CallOptions, CallTag, RetryPolicy, TenantId};
pub use replycache::{ReplyCache, ReplyCacheStats};
pub use server::{ReplySink, ServerCall, ServerInterface};
pub use supervisor::{Supervisor, SupervisorStats};
pub use transport::Transport;

/// Result alias for runtime operations.
pub type Result<T> = core::result::Result<T, RpcError>;
