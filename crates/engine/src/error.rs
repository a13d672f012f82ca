//! The engine's error type and its one folding into the runtime's
//! [`RpcError`], for control operations and refused calls alike.

use flexrpc_runtime::{Disconnect, RpcError, ShapeMisuse};

/// Errors from engine control operations.
#[derive(Debug)]
pub enum EngineError {
    /// No service registered under that name.
    UnknownService(String),
    /// A service with that name already exists.
    DuplicateService(String),
    /// The engine is shutting down.
    Closed,
    /// The engine shed the call at admission: either the submitting
    /// tenant is over its own quota, or the aggregate backlog is above
    /// the engine policy's high-water backstop.
    Overloaded,
    /// Program compilation failed for a combination.
    Compile(flexrpc_core::CoreError),
    /// The underlying network refused an operation.
    Net(flexrpc_net::NetError),
    /// The submission was lost (induced fault); a resend may succeed.
    Dropped,
    /// The binding is gone: the engine's process crashed or its link is
    /// cut (induced faults), or its circuit breaker is open — it judged
    /// itself sick and refuses admission so clients fail over instead of
    /// piling on.
    Disconnected(Disconnect),
    /// Bind-time call-shape negotiation failed: the two ends declare
    /// incompatible shapes for an operation (e.g. `[oneway]` against
    /// unary, or `[stream]` against `[oneway]`), or the client's
    /// presentation names an operation the service does not have. Fix the
    /// presentations; no retry helps.
    ShapeMismatch(ShapeMisuse),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::UnknownService(n) => write!(f, "unknown service `{n}`"),
            EngineError::DuplicateService(n) => write!(f, "service `{n}` already registered"),
            EngineError::Closed => write!(f, "engine is shut down"),
            EngineError::Overloaded => write!(f, "engine overloaded: call shed at admission"),
            EngineError::Compile(e) => write!(f, "program compilation failed: {e}"),
            EngineError::Net(e) => write!(f, "network error: {e}"),
            EngineError::Dropped => write!(f, "submission dropped (induced fault)"),
            EngineError::Disconnected(cause) => write!(f, "engine connection lost: {cause:?}"),
            EngineError::ShapeMismatch(why) => write!(f, "call-shape mismatch: {why}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Engine failures fold into the runtime's one error: shed at admission is
/// [`Overloaded`](flexrpc_runtime::ErrorKind::Overloaded), shutdown is
/// [`Cancelled`](flexrpc_runtime::ErrorKind::Cancelled), a crashed engine
/// and an open breaker are a lost binding, network trouble keeps its
/// layer's detail, and registration and compile problems are fatal (no
/// retry fixes a missing service).
impl From<EngineError> for RpcError {
    fn from(e: EngineError) -> RpcError {
        use flexrpc_core::CoreError;
        match e {
            EngineError::Overloaded => RpcError::Overloaded,
            EngineError::Closed => RpcError::Cancelled,
            EngineError::Dropped => RpcError::Dropped,
            // A crashed engine and an open breaker read the same to a
            // supervisor: this binding is gone, fail over.
            EngineError::Disconnected(cause) => RpcError::Disconnected(cause),
            EngineError::Net(e) => RpcError::Net(e),
            EngineError::ShapeMismatch(why) => RpcError::ShapeMisuse(why),
            EngineError::Compile(e) => RpcError::Core(e),
            EngineError::UnknownService(name) => {
                RpcError::Core(CoreError::Unresolved { kind: "service", name })
            }
            EngineError::DuplicateService(name) => {
                RpcError::Core(CoreError::Duplicate { kind: "service", name })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexrpc_runtime::ErrorKind;

    #[test]
    fn every_engine_error_folds_in_with_its_kind() {
        let cases = [
            (EngineError::UnknownService("svc".into()), ErrorKind::Fatal),
            (EngineError::DuplicateService("svc".into()), ErrorKind::Fatal),
            (EngineError::Closed, ErrorKind::Cancelled),
            (EngineError::Overloaded, ErrorKind::Overloaded),
            (
                EngineError::Compile(flexrpc_core::CoreError::Unsupported("x".into())),
                ErrorKind::Fatal,
            ),
            (EngineError::Net(flexrpc_net::NetError::Dropped), ErrorKind::Retryable),
            (EngineError::Dropped, ErrorKind::Retryable),
            (EngineError::Disconnected(Disconnect::PeerDown), ErrorKind::Disconnected),
            (EngineError::Disconnected(Disconnect::LinkCut), ErrorKind::Disconnected),
            (EngineError::Disconnected(Disconnect::BreakerOpen), ErrorKind::Disconnected),
            (
                EngineError::ShapeMismatch(ShapeMisuse::Undeclared("reset".into())),
                ErrorKind::ContractViolation,
            ),
        ];
        for (e, kind) in cases {
            let shown = e.to_string();
            assert_eq!(RpcError::from(e).kind(), kind, "{shown}");
        }
    }
}
