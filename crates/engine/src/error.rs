//! The engine's error type and its two foldings into the runtime's
//! taxonomy: [`EngineError`] as a unified [`flexrpc_runtime::Error`] for
//! control operations, and as an [`RpcError`] for calls refused at
//! admission.

use flexrpc_runtime::RpcError;

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
    /// The engine's server process crashed (induced fault): the binding is
    /// gone until the scheduled restart.
    Disconnected(String),
    /// The circuit breaker is open: the engine judged itself sick and
    /// refuses admission so clients fail over instead of piling on.
    Unhealthy,
    /// Bind-time call-shape negotiation failed: the two ends declare
    /// incompatible shapes for an operation (e.g. `[oneway]` against
    /// unary, or `[stream]` against `[oneway]`), or the client's
    /// presentation names an operation the service does not have. Fix the
    /// presentations; no retry helps.
    ShapeMismatch(String),
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
            EngineError::Disconnected(why) => write!(f, "engine connection lost: {why}"),
            EngineError::Unhealthy => write!(f, "engine circuit breaker open"),
            EngineError::ShapeMismatch(why) => write!(f, "call-shape mismatch: {why}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<flexrpc_net::NetError> for EngineError {
    fn from(e: flexrpc_net::NetError) -> EngineError {
        EngineError::Net(e)
    }
}

/// Engine failures fold into the unified taxonomy: shed at admission is
/// [`Overloaded`](flexrpc_runtime::ErrorKind::Overloaded), shutdown is
/// [`Cancelled`](flexrpc_runtime::ErrorKind::Cancelled), network trouble
/// keeps its layer's classification, and registration/compile problems are
/// fatal (no retry fixes a missing service).
impl From<EngineError> for flexrpc_runtime::Error {
    fn from(e: EngineError) -> flexrpc_runtime::Error {
        use flexrpc_runtime::ErrorKind;
        let kind = match &e {
            EngineError::Overloaded => ErrorKind::Overloaded,
            EngineError::Closed => ErrorKind::Cancelled,
            EngineError::Net(n) => RpcError::Net(n.clone()).kind(),
            EngineError::Dropped => ErrorKind::Retryable,
            // A crashed engine and an open breaker read the same to a
            // supervisor: this binding is gone, fail over.
            EngineError::Disconnected(_) | EngineError::Unhealthy => ErrorKind::Disconnected,
            EngineError::ShapeMismatch(_) => ErrorKind::ContractViolation,
            EngineError::UnknownService(_)
            | EngineError::DuplicateService(_)
            | EngineError::Compile(_) => ErrorKind::Fatal,
        };
        flexrpc_runtime::Error::new(kind, e.to_string())
    }
}

/// Folds engine admission failures into the runtime's error taxonomy —
/// shared by the unary and one-way transport paths.
pub(crate) fn admission_error(e: EngineError) -> RpcError {
    match e {
        EngineError::Overloaded => RpcError::Overloaded,
        EngineError::Closed => RpcError::Cancelled,
        EngineError::Dropped => RpcError::Transport("submission dropped (induced fault)".into()),
        EngineError::Disconnected(why) => RpcError::Disconnected(why),
        EngineError::Unhealthy => RpcError::Disconnected("engine circuit breaker open".into()),
        other => RpcError::Transport(other.to_string()),
    }
}
