//! The runtime's one error type.
//!
//! [`RpcError`] is what every stub, server, transport, supervisor, stream
//! and engine entry point fails with. The crate-local enums
//! ([`flexrpc_kernel::KernelError`], [`flexrpc_net::NetError`],
//! [`flexrpc_core::CoreError`], marshal errors) fold into it via `From`
//! with their detail intact, so a caller can match the layer and cause.
//! [`RpcError::kind`] classifies it, in this one place, into the
//! [`ErrorKind`] taxonomy: what a caller can *do* about the failure,
//! whichever transport produced it — the class is a property of the
//! variant, so one cause reads the same on every transport.

use core::fmt;
pub use flexrpc_clock::Disconnect;
use flexrpc_core::present::CallShape;

/// An error surfaced by a client stub, server dispatch, or transport. Every
/// variant is a value: a `String` field holds only a name the caller
/// passed in, never a sentence, so no failure allocates to say what it is.
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
    /// No operation of that name on the interface.
    NoSuchOp(String),
    /// No operation at that index on the interface.
    NoOpIndex(usize),
    /// The operation at that index has no registered work function.
    NoHandler(usize),
    /// A work function named a slot its operation does not have.
    NoSlot(String),
    /// A work function produced an `out` payload its operation lacks.
    NoOutPayload(String),
    /// A slot held a value of the wrong kind for the op executed on it.
    SlotKind {
        /// Slot index.
        slot: usize,
        /// What the op required.
        expected: &'static str,
        /// What the slot held.
        found: &'static str,
    },
    /// Fixed-length opaque slot `slot` held `found` bytes; the interface
    /// fixes `expected`.
    FixedLen { slot: usize, expected: usize, found: usize },
    /// The message carried no port right left for this slot to read.
    MissingRight(usize),
    /// A `[special]` op referenced a hook that was never registered.
    MissingHook(usize),
    /// The work function misused the reply sink: it produced sink payload
    /// slot `Some(..)` out of order, or (`None`) more sink payloads than its
    /// operation declares.
    SinkMisuse(Option<usize>),
    /// The operation's shape (unary, `[oneway]`, `[stream(N)]`) does not
    /// admit the entry point used, or the two ends' shapes do not reconcile.
    ShapeMisuse(ShapeMisuse),
    /// The call passes port rights over a transport that cannot carry them.
    RightsUnsupported,
    /// A work function asked to modify a payload slot its client keeps
    /// `[preserved]`.
    Preserved(usize),
    /// The call's deadline expired before a reply arrived (measured on the
    /// deterministic sim clock).
    DeadlineExceeded,
    /// The serving engine shed the call at admission because its queue
    /// crossed the high-water mark.
    Overloaded,
    /// The call was accepted but abandoned before execution — engine drain
    /// fails queued-but-unstarted work with this instead of hanging.
    Cancelled,
    /// The message was lost before anything executed (induced fault).
    Dropped,
    /// The binding is gone, not just one message: recovery means rebinding
    /// (possibly elsewhere) rather than resending on the same channel.
    Disconnected(Disconnect),
    /// The transport has no sim clock, so what the call asked for (a
    /// deadline, a credit stall) cannot be enforced on it.
    NoClock(&'static str),
}

/// How a call's shape was misused: the operation (by index, or by the name
/// a client presentation gave it), and the shapes or the entry point that
/// disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShapeMisuse {
    /// Entry point `entry` does not serve operation `op`, of `shape`:
    /// `call` on a `[oneway]` op, `notify` on any other, a stream sender on
    /// a shape that is not `[stream]`.
    Entry { op: usize, shape: CallShape, entry: &'static str },
    /// The `client` and `server` shapes declared for operation `op` do not
    /// reconcile.
    Mismatch { op: usize, client: CallShape, server: CallShape },
    /// A client presentation declares an operation the service does not
    /// have.
    Undeclared(String),
    /// A retry policy may resend operation `.0`, which is neither declared
    /// `[idempotent]` nor bound at-most-once.
    NotIdempotent(usize),
}

impl fmt::Display for ShapeMisuse {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use ShapeMisuse as S;
        match self {
            S::Entry { op, shape, entry } => write!(f, "`{entry}` on op #{op}, which is {shape:?}"),
            S::Mismatch { op, client, server } => {
                write!(f, "op #{op}: client {client:?}, server {server:?}")
            }
            S::Undeclared(name) => write!(f, "the service has no operation `{name}`"),
            S::NotIdempotent(op) => write!(f, "a retry policy on op #{op}, not [idempotent]"),
        }
    }
}

impl fmt::Display for RpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use RpcError as E;
        match self {
            E::Marshal(e) => write!(f, "marshal error: {e}"),
            E::Kernel(e) => write!(f, "kernel error: {e}"),
            E::Net(e) => write!(f, "network error: {e}"),
            E::Core(e) => write!(f, "bind error: {e}"),
            E::Remote(code) => write!(f, "remote failure, status {code}"),
            E::NoSuchOp(name) => write!(f, "no such operation `{name}`"),
            E::NoOpIndex(i) => write!(f, "no operation at index {i}"),
            E::NoHandler(i) => write!(f, "no work function registered for operation #{i}"),
            E::NoSlot(name) => write!(f, "no slot named `{name}`"),
            E::NoOutPayload(name) => write!(f, "no out payload `{name}`"),
            E::SlotKind { slot, expected, found } => {
                write!(f, "slot {slot}: expected {expected}, found {found}")
            }
            E::FixedLen { slot, expected, found } => {
                write!(f, "slot {slot}: {found} bytes in a {expected}-byte fixed opaque field")
            }
            E::MissingRight(slot) => write!(f, "slot {slot}: no port right in the message"),
            E::MissingHook(i) => write!(f, "no [special] hook registered for param {i}"),
            E::SinkMisuse(None) => write!(f, "reply sink misused: too many payloads"),
            E::SinkMisuse(Some(slot)) => write!(f, "reply sink misused: slot {slot} out of order"),
            E::ShapeMisuse(why) => write!(f, "call-shape misuse: {why}"),
            E::RightsUnsupported => write!(f, "the transport cannot carry port rights"),
            E::Preserved(slot) => write!(f, "slot {slot} is [preserved] by its client"),
            E::DeadlineExceeded => write!(f, "deadline exceeded"),
            E::Overloaded => write!(f, "server overloaded, call shed"),
            E::Cancelled => write!(f, "call cancelled before execution"),
            E::Dropped => write!(f, "message dropped (induced fault)"),
            E::Disconnected(cause) => write!(f, "connection lost: {cause:?}"),
            E::NoClock(what) => {
                write!(f, "transport has no sim clock; {what} cannot be enforced on it")
            }
        }
    }
}

impl RpcError {
    /// The unified taxonomy bucket this error falls into: every variant is
    /// named, so a new one does not compile until it is classified.
    pub fn kind(&self) -> ErrorKind {
        use flexrpc_core::CoreError as C;
        use flexrpc_kernel::KernelError as K;
        use flexrpc_net::NetError as N;
        use ErrorKind::*;
        use RpcError as E;
        match self {
            // A fresh send may succeed: the message (or its server) was
            // transiently unavailable, nothing about the call itself is bad.
            E::Dropped | E::Kernel(K::Dropped | K::NoServer) => Retryable,
            E::Net(N::Dropped | N::NoService(_)) => Retryable,
            // The binding itself died: resending on this channel is futile,
            // but a supervisor can rebind (same or different endpoint) and
            // an at-most-once binding may replay through the reply cache.
            E::Disconnected(_) | E::Kernel(K::ConnectionDead) => Disconnected,
            E::Net(N::Disconnected(..)) => Disconnected,
            // Contract violations: the endpoints disagree about the
            // interface or its presentation, or the call asks for what the
            // binding does not admit — retrying cannot help, and the
            // caller's binding needs fixing.
            E::Core(C::ContractViolation(_) | C::BadAnnotation { .. }) => ContractViolation,
            E::Kernel(K::SignatureMismatch { .. }) | E::ShapeMisuse(_) => ContractViolation,
            E::RightsUnsupported | E::Preserved(_) => ContractViolation,
            E::DeadlineExceeded => DeadlineExceeded,
            E::Overloaded => Overloaded,
            E::Cancelled => Cancelled,
            // Deterministic: the same call fails the same way — marshal
            // failures, bad addresses, malformed frames, remote statuses,
            // refusals and denials, slot misuse, a server's failed
            // dispatch. A failed dispatch records nothing in a reply cache,
            // so resending it would run the handler again.
            E::Kernel(_) | E::Core(_) | E::Marshal(_) | E::Remote(_) | E::NoClock(_) => Fatal,
            E::Net(N::NoSuchHost(_) | N::ServiceFailure | N::Malformed(_) | N::Refused(_)) => Fatal,
            E::Net(N::Denied(_)) => Fatal,
            E::Net(N::ReplyCount { .. } | N::NoReply(_)) => Fatal,
            E::NoSuchOp(_) | E::NoOpIndex(_) | E::NoHandler(_) | E::NoSlot(_) => Fatal,
            E::NoOutPayload(_) | E::SinkMisuse(_) | E::MissingRight(_) | E::MissingHook(_) => Fatal,
            E::SlotKind { .. } | E::FixedLen { .. } => Fatal,
        }
    }
}

impl std::error::Error for RpcError {}

/// The unified error taxonomy: what a caller can *do* about a failure,
/// independent of which crate produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorKind {
    /// Transient: a fresh attempt may succeed (a dropped message, a
    /// server not yet registered).
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

/// Each crate-local error folds in as its layer's variant, detail intact.
macro_rules! fold_in {
    ($($from:ty => $variant:ident),*) => {$(
        impl From<$from> for RpcError {
            fn from(e: $from) -> Self {
                RpcError::$variant(e)
            }
        }
    )*};
}
fold_in!(
    flexrpc_marshal::MarshalError => Marshal,
    flexrpc_kernel::KernelError => Kernel,
    flexrpc_net::NetError => Net,
    flexrpc_core::CoreError => Core
);

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
        assert_eq!(RpcError::Dropped.kind(), ErrorKind::Retryable);
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
        assert_eq!(RpcError::Net(flexrpc_net::NetError::ServiceFailure).kind(), ErrorKind::Fatal);
        let malformed = flexrpc_net::NetError::Malformed("record mark length mismatch");
        assert_eq!(RpcError::Net(malformed).kind(), ErrorKind::Fatal);
        // A work function's deterministic failures: no resend runs it again.
        assert_eq!(RpcError::FixedLen { slot: 1, expected: 16, found: 3 }.kind(), ErrorKind::Fatal);
        assert_eq!(RpcError::MissingRight(0).kind(), ErrorKind::Fatal);
        assert_eq!(RpcError::NoSlot("y".into()).kind(), ErrorKind::Fatal);
        // What the binding does not admit is a contract violation.
        assert_eq!(RpcError::RightsUnsupported.kind(), ErrorKind::ContractViolation);
        assert_eq!(RpcError::Preserved(2).kind(), ErrorKind::ContractViolation);
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
        assert_ne!(e.kind(), ErrorKind::Retryable);
        let host = flexrpc_net::SimNet::new().add_host("b");
        let e = RpcError::Net(flexrpc_net::NetError::Disconnected(host, Disconnect::LinkCut));
        assert_eq!(e.kind(), ErrorKind::Disconnected);
        for cause in [
            Disconnect::PeerDown,
            Disconnect::LinkCut,
            Disconnect::ClosedBeforeReply,
            Disconnect::BreakerOpen,
        ] {
            let e = RpcError::Disconnected(cause);
            assert_eq!(e.kind(), ErrorKind::Disconnected);
            assert_eq!(e.to_string(), format!("connection lost: {cause:?}"));
        }
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

    /// The `Result<u32, RpcError>` a stub call returns is measured at 48 B;
    /// typed variants must not grow it.
    #[test]
    fn an_error_is_no_bigger_than_48_bytes() {
        assert!(std::mem::size_of::<RpcError>() <= 48, "{}", std::mem::size_of::<RpcError>());
    }
}
