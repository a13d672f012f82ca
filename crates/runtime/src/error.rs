//! The runtime's one error type.
//!
//! [`RpcError`] is what every stub, server, transport, supervisor, stream
//! and engine entry point fails with. The crate-local enums
//! ([`flexrpc_kernel::KernelError`], [`flexrpc_net::NetError`],
//! [`flexrpc_core::CoreError`], marshal errors) fold into it via `From`
//! with their detail intact, so a caller can match the layer and cause.
//! [`RpcError::kind`] classifies it, in this one place, into the
//! [`ErrorKind`] taxonomy: what a caller can *do* about the failure,
//! whichever transport produced it.

use core::fmt;

/// An error surfaced by a client stub, server dispatch, or transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RpcError {
    /// Encoding/decoding failed.
    Marshal(flexrpc_marshal::MarshalError),
    /// The simulated kernel refused an operation.
    Kernel(flexrpc_kernel::KernelError),
    /// The simulated network refused an operation.
    Net(flexrpc_net::NetError),
    /// Binding failed: program compilation or presentation application, or
    /// a name the binding needs (a service, an endpoint) does not resolve.
    Core(flexrpc_core::CoreError),
    /// The server completed the RPC with a non-zero application status and
    /// the presentation surfaces it through the exception path (no
    /// `[comm_status]`).
    Remote(u32),
    /// The requested operation does not exist on the interface.
    NoSuchOp(String),
    /// A slot held a value of the wrong kind for the op executed on it.
    SlotKind {
        /// Slot index.
        slot: usize,
        /// What the op required.
        expected: &'static str,
        /// What the slot held.
        found: &'static str,
    },
    /// A `[special]` op referenced a hook that was never registered.
    MissingHook(usize),
    /// The server work function misused the reply sink (wrong order, or a
    /// sink payload written twice).
    SinkMisuse(String),
    /// A call-shape misuse: the operation's negotiated shape (unary,
    /// `[oneway]`, `[stream(N)]`) does not admit the entry point used —
    /// e.g. `notify` on a unary op, or `call` on a one-way op.
    ShapeMisuse(String),
    /// Transport-level failure with no richer classification.
    Transport(String),
    /// The call's deadline expired before a reply arrived (measured on the
    /// deterministic sim clock).
    DeadlineExceeded,
    /// The serving engine shed the call at admission because its queue
    /// crossed the high-water mark.
    Overloaded,
    /// The call was accepted but abandoned before execution — engine drain
    /// fails queued-but-unstarted work with this instead of hanging.
    Cancelled,
    /// The connection to the server died (crash, close, or circuit-breaker
    /// trip). Distinct from [`RpcError::Transport`]: the *binding* is gone,
    /// not just one message, so recovery means rebinding (possibly to a
    /// different endpoint) rather than resending on the same channel.
    Disconnected(String),
    /// The transport has no sim clock, so what the call asked for (a
    /// deadline, a credit stall) cannot be enforced on it.
    NoClock(&'static str),
}

impl fmt::Display for RpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpcError::Marshal(e) => write!(f, "marshal error: {e}"),
            RpcError::Kernel(e) => write!(f, "kernel error: {e}"),
            RpcError::Net(e) => write!(f, "network error: {e}"),
            RpcError::Core(e) => write!(f, "bind error: {e}"),
            RpcError::Remote(code) => write!(f, "remote failure, status {code}"),
            RpcError::NoSuchOp(name) => write!(f, "no such operation `{name}`"),
            RpcError::SlotKind { slot, expected, found } => {
                write!(f, "slot {slot}: expected {expected}, found {found}")
            }
            RpcError::MissingHook(i) => write!(f, "no [special] hook registered for param {i}"),
            RpcError::SinkMisuse(why) => write!(f, "reply sink misused: {why}"),
            RpcError::ShapeMisuse(why) => write!(f, "call-shape misuse: {why}"),
            RpcError::Transport(why) => write!(f, "transport failure: {why}"),
            RpcError::DeadlineExceeded => write!(f, "deadline exceeded"),
            RpcError::Overloaded => write!(f, "server overloaded, call shed"),
            RpcError::Cancelled => write!(f, "call cancelled before execution"),
            RpcError::Disconnected(why) => write!(f, "connection lost: {why}"),
            RpcError::NoClock(what) => {
                write!(f, "transport has no sim clock; {what} cannot be enforced on it")
            }
        }
    }
}

impl RpcError {
    /// The unified taxonomy bucket this error falls into.
    pub fn kind(&self) -> ErrorKind {
        match self {
            // A fresh send may succeed: the message (or its server) was
            // transiently unavailable, nothing about the call itself is bad.
            RpcError::Kernel(
                flexrpc_kernel::KernelError::Dropped | flexrpc_kernel::KernelError::NoServer,
            ) => ErrorKind::Retryable,
            RpcError::Net(flexrpc_net::NetError::Dropped | flexrpc_net::NetError::NoService(_)) => {
                ErrorKind::Retryable
            }
            RpcError::Transport(_) => ErrorKind::Retryable,
            // The binding itself died: resending on this channel is futile,
            // but a supervisor can rebind (same or different endpoint) and
            // an at-most-once binding may replay through the reply cache.
            RpcError::Kernel(flexrpc_kernel::KernelError::ConnectionDead)
            | RpcError::Net(flexrpc_net::NetError::Disconnected(_))
            | RpcError::Disconnected(_) => ErrorKind::Disconnected,
            // Contract violations: the endpoints disagree about the
            // interface or its presentation — retrying cannot help, and the
            // caller's binding needs fixing.
            RpcError::Core(
                flexrpc_core::CoreError::ContractViolation(_)
                | flexrpc_core::CoreError::BadAnnotation { .. },
            ) => ErrorKind::ContractViolation,
            RpcError::Kernel(flexrpc_kernel::KernelError::SignatureMismatch { .. }) => {
                ErrorKind::ContractViolation
            }
            // Using the wrong entry point for an op's call shape is a
            // binding-level disagreement, not a transient fault.
            RpcError::ShapeMisuse(_) => ErrorKind::ContractViolation,
            RpcError::DeadlineExceeded => ErrorKind::DeadlineExceeded,
            RpcError::Overloaded => ErrorKind::Overloaded,
            RpcError::Cancelled => ErrorKind::Cancelled,
            // Everything else (marshal failures, bad addresses, remote
            // application statuses, slot misuse, a server's failed dispatch
            // or refusal on any transport) is deterministic: the same call
            // will fail the same way. A failed dispatch records nothing in
            // a reply cache, so resending it would run the handler again.
            _ => ErrorKind::Fatal,
        }
    }

    /// Whether a retry policy may resend after this error.
    pub(crate) fn is_retryable(&self) -> bool {
        self.kind() == ErrorKind::Retryable
    }
}

impl std::error::Error for RpcError {}

/// The unified error taxonomy: what a caller can *do* about a failure,
/// independent of which crate produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorKind {
    /// Transient: a fresh attempt may succeed (dropped message, dead
    /// connection, transport hiccup).
    Retryable,
    /// Deterministic: the same call will fail the same way.
    Fatal,
    /// The call's deadline expired before completion.
    DeadlineExceeded,
    /// The server shed the call at admission under load.
    Overloaded,
    /// The call was abandoned before execution (shutdown drain).
    Cancelled,
    /// The endpoints disagree about the interface contract or its
    /// presentation; fix the binding, don't retry.
    ContractViolation,
    /// The connection to the server is gone (crash, close, breaker trip).
    /// Not retryable on the same channel; a supervisor may rebind to a
    /// fallback endpoint, and an at-most-once binding may safely replay.
    Disconnected,
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorKind::Retryable => "retryable",
            ErrorKind::Fatal => "fatal",
            ErrorKind::DeadlineExceeded => "deadline exceeded",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::Cancelled => "cancelled",
            ErrorKind::ContractViolation => "contract violation",
            ErrorKind::Disconnected => "disconnected",
        };
        f.write_str(s)
    }
}

impl From<flexrpc_marshal::MarshalError> for RpcError {
    fn from(e: flexrpc_marshal::MarshalError) -> Self {
        RpcError::Marshal(e)
    }
}

impl From<flexrpc_kernel::KernelError> for RpcError {
    fn from(e: flexrpc_kernel::KernelError) -> Self {
        RpcError::Kernel(e)
    }
}

impl From<flexrpc_net::NetError> for RpcError {
    fn from(e: flexrpc_net::NetError) -> Self {
        RpcError::Net(e)
    }
}

impl From<flexrpc_core::CoreError> for RpcError {
    fn from(e: flexrpc_core::CoreError) -> Self {
        RpcError::Core(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: RpcError = flexrpc_marshal::MarshalError::BadBool(3).into();
        assert!(e.to_string().contains("marshal error"));
        let e: RpcError = flexrpc_kernel::KernelError::NoServer.into();
        assert!(e.to_string().contains("kernel error"));
        let e = RpcError::SlotKind { slot: 2, expected: "bytes", found: "u32" };
        assert!(e.to_string().contains("slot 2"));
    }

    #[test]
    fn taxonomy_classifies_each_layer() {
        assert_eq!(RpcError::Net(flexrpc_net::NetError::Dropped).kind(), ErrorKind::Retryable);
        assert_eq!(
            RpcError::Kernel(flexrpc_kernel::KernelError::Dropped).kind(),
            ErrorKind::Retryable
        );
        assert_eq!(RpcError::Transport("hiccup".into()).kind(), ErrorKind::Retryable);
        assert_eq!(
            RpcError::Marshal(flexrpc_marshal::MarshalError::BadBool(3)).kind(),
            ErrorKind::Fatal
        );
        assert_eq!(RpcError::Remote(5).kind(), ErrorKind::Fatal);
        // A server that ran the call and failed, or refused it, fails the
        // same way again on every transport: no resend.
        assert_eq!(
            RpcError::Kernel(flexrpc_kernel::KernelError::ServerFailure(1)).kind(),
            ErrorKind::Fatal
        );
        assert_eq!(
            RpcError::Net(flexrpc_net::NetError::ServiceFailure("dispatch failed".into())).kind(),
            ErrorKind::Fatal
        );
        let refusal = flexrpc_net::NetError::Refused(flexrpc_net::sunrpc::AcceptStat::ProcUnavail);
        assert_eq!(RpcError::Net(refusal).kind(), ErrorKind::Fatal);
        assert_eq!(
            RpcError::Kernel(flexrpc_kernel::KernelError::SignatureMismatch {
                client: 1,
                server: 2
            })
            .kind(),
            ErrorKind::ContractViolation
        );
        assert_eq!(RpcError::DeadlineExceeded.kind(), ErrorKind::DeadlineExceeded);
        assert_eq!(RpcError::Overloaded.kind(), ErrorKind::Overloaded);
        assert_eq!(RpcError::Cancelled.kind(), ErrorKind::Cancelled);
    }

    #[test]
    fn disconnection_is_its_own_kind_at_every_layer() {
        // A dead connection is not "retryable" — resending on the same
        // channel cannot succeed; only a rebind can.
        let e = RpcError::Kernel(flexrpc_kernel::KernelError::ConnectionDead);
        assert_eq!(e.kind(), ErrorKind::Disconnected);
        assert!(!e.is_retryable());
        let e = RpcError::Net(flexrpc_net::NetError::Disconnected("host b".into()));
        assert_eq!(e.kind(), ErrorKind::Disconnected);
        let e = RpcError::Disconnected("peer crashed".into());
        assert_eq!(e.kind(), ErrorKind::Disconnected);
        assert!(e.to_string().contains("connection lost"));
    }

    #[test]
    fn every_crate_local_enum_folds_in_with_its_kind() {
        let e: RpcError = flexrpc_net::NetError::Dropped.into();
        assert_eq!(e.kind(), ErrorKind::Retryable);
        let e: RpcError = flexrpc_kernel::KernelError::NoServer.into();
        assert_eq!(e.kind(), ErrorKind::Retryable);
        let e: RpcError = flexrpc_core::CoreError::ContractViolation("sig".into()).into();
        assert_eq!(e.kind(), ErrorKind::ContractViolation);
        let e: RpcError = flexrpc_marshal::MarshalError::BadBool(1).into();
        assert_eq!(e.kind(), ErrorKind::Fatal);
        assert!(RpcError::DeadlineExceeded.to_string().contains("deadline"));
        let e = RpcError::NoClock("deadlines");
        assert_eq!(e.kind(), ErrorKind::Fatal);
        assert!(e.to_string().contains("deadlines cannot be enforced"));
    }
}
