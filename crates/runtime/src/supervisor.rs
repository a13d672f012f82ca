//! Connection supervision: failover rebind with renegotiated presentation.
//!
//! The paper's bind-time negotiation makes a broken binding *cheap to
//! re-establish*: all the per-connection cleverness (combination
//! signatures, specialized stubs, copy elision) was derived from the two
//! endpoints' declarations, so deriving it again against a different
//! endpoint — even one on a completely different transport with different
//! negotiated semantics — is just another bind. The [`Supervisor`]
//! exploits that: it owns a prioritized list of endpoint factories (e.g.
//! same-domain primary, Sun RPC standby), watches every call for
//! [`ErrorKind::Disconnected`], and on disconnect re-runs bind-time
//! negotiation down the list and replays the failed call.
//!
//! Replay is licensed the same way retry is: the operation declared
//! `[idempotent]`, or the binding runs at-most-once (the failed call's
//! tag is reused, so a server that already executed it — a restarted
//! primary with a live reply cache — suppresses the duplicate).

use crate::client::ClientStub;
use crate::error::{ErrorKind, RpcError};
use crate::policy::CallOptions;
use crate::Result;
use flexrpc_core::value::Value;
use flexrpc_core::CoreError;
use flexrpc_trace::{MetricsRegistry, SharedCallTrace, Stage};

/// One way to (re-)establish a binding: runs the full bind-time
/// negotiation against a fixed endpoint and returns a ready stub.
/// `FnMut` so a factory can hold warm state (a shared program cache, a
/// connection pool slot) across rebinds.
pub type EndpointFactory = Box<dyn FnMut() -> Result<ClientStub> + Send>;

flexrpc_trace::instruments! {
    /// The supervisor's live counters, adopted under `supervisor.*` names.
    pub struct SupervisorCounters {
        /// Disconnects observed on supervised calls.
        disconnects: Counter = "supervisor.disconnect",
        /// Successful rebinds (endpoint factories that produced a stub).
        rebinds: Counter = "supervisor.rebind",
        /// Failed calls replayed on a fresh binding.
        replays: Counter = "supervisor.replay",
        /// Disconnect-to-recovered-reply latency of the most recent failover,
        /// in sim-clock nanoseconds (0 if the transports have no clock).
        recovery_ns_last: Counter = "supervisor.recovery_ns_last",
        /// The largest recovery latency seen.
        recovery_ns_max: Counter = "supervisor.recovery_ns_max",
        /// Every failover's recovery latency, sim-clock nanoseconds.
        recovery_ns: Histogram = "supervisor.recovery_ns",
    }
    /// Counters describing supervision activity (a point-in-time copy of
    /// the supervisor's registry-backed counters; see [`Supervisor::stats`]).
    #[derive(Eq)]
    pub struct SupervisorStats;
}

/// Builds a [`Supervisor`] from a prioritized endpoint list.
#[derive(Default)]
pub struct SupervisorBuilder {
    endpoints: Vec<EndpointFactory>,
}

impl SupervisorBuilder {
    /// Appends an endpoint. The first registered is the primary; later
    /// ones are standbys tried in order on disconnect.
    pub fn endpoint(
        mut self,
        factory: impl FnMut() -> Result<ClientStub> + Send + 'static,
    ) -> SupervisorBuilder {
        self.endpoints.push(Box::new(factory));
        self
    }

    /// Binds the primary (falling down the list if it refuses) and
    /// returns the running supervisor.
    pub fn connect(self) -> Result<Supervisor> {
        let mut endpoints = self.endpoints;
        if endpoints.is_empty() {
            let name = "none registered".into();
            return Err(RpcError::Core(CoreError::Unresolved { kind: "endpoint", name }));
        }
        let mut last = None;
        for (i, factory) in endpoints.iter_mut().enumerate() {
            match factory() {
                Ok(stub) => {
                    let counters = SupervisorCounters::default();
                    counters.rebinds.inc();
                    return Ok(Supervisor { endpoints, current: i, stub, counters, tracer: None });
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last.expect("non-empty endpoint list"))
    }
}

/// A supervised client binding: calls go to the current endpoint; a
/// disconnect triggers failover down the endpoint list and a licensed
/// replay of the failed call.
pub struct Supervisor {
    endpoints: Vec<EndpointFactory>,
    current: usize,
    stub: ClientStub,
    counters: SupervisorCounters,
    tracer: Option<SharedCallTrace>,
}

impl Supervisor {
    /// Starts building a supervisor.
    pub fn builder() -> SupervisorBuilder {
        SupervisorBuilder::default()
    }

    /// The currently bound stub (e.g. to enable at-most-once or register
    /// hooks before the first call).
    pub fn stub_mut(&mut self) -> &mut ClientStub {
        &mut self.stub
    }

    /// The currently bound stub, immutably.
    pub fn stub(&self) -> &ClientStub {
        &self.stub
    }

    /// Index of the endpoint currently bound (0 = primary).
    pub fn current_endpoint(&self) -> usize {
        self.current
    }

    /// Supervision counters (a point-in-time copy of the registry-backed
    /// handles).
    pub fn stats(&self) -> SupervisorStats {
        self.counters.snapshot()
    }

    /// Adopts this supervisor's counters and its `supervisor.recovery_ns`
    /// latency histogram into `registry` under their `supervisor.*` names.
    pub fn register_metrics(&self, registry: &MetricsRegistry) {
        self.counters.register_metrics(registry);
    }

    /// Attaches a shared span trace: failover episodes record
    /// [`Stage::Failover`] (disconnect → recovered reply), each rebind a
    /// [`Stage::Bind`] span, and each replayed call a [`Stage::Replay`]
    /// span (detail = endpoint index tried).
    pub fn set_tracer(&mut self, tracer: SharedCallTrace) {
        self.tracer = Some(tracer);
    }

    /// The attached span trace, if any.
    pub fn tracer(&self) -> Option<&SharedCallTrace> {
        self.tracer.as_ref()
    }

    /// A fresh call frame for an operation on the current binding.
    pub fn new_frame(&self, name: &str) -> Result<Vec<Value>> {
        self.stub.new_frame(name)
    }

    /// Re-runs bind-time negotiation against the *current* endpoint
    /// **live** — a policy-driven rebind rather than a failure-driven
    /// one (a presentation changed, an operator swapped a policy, and
    /// the binding should be re-derived). The
    /// fresh stub carries the at-most-once state forward unchanged: no
    /// call failed, so the sequence is *not* rewound, and the tenant
    /// identity is preserved — duplicate suppression stays continuous
    /// across the swap. On factory failure the old binding stays bound.
    pub fn rebind(&mut self) -> Result<()> {
        let rebind_call = self.tracer.as_ref().map(|t| t.begin_call());
        let bind_start = self.tracer.as_ref().map_or(0, |t| t.now_ns());
        let amo = self.stub.at_most_once_state();
        let tenant = self.stub.tenant();
        let mut stub = (self.endpoints[self.current])()?;
        if let Some((binding, next_seq)) = amo {
            stub.resume_at_most_once(binding, next_seq);
        }
        stub.set_tenant(tenant);
        self.counters.rebinds.inc();
        if let (Some(t), Some(call)) = (&self.tracer, rebind_call) {
            t.record(call, Stage::Bind, bind_start, t.now_ns(), self.current as u64);
        }
        self.stub = stub;
        Ok(())
    }

    /// Invokes an operation under `options`, failing over on disconnect.
    ///
    /// The current stub handles same-endpoint retries itself (its retry
    /// policy, which under at-most-once may resend through the server's
    /// reply cache). Only when the binding is truly gone — the stub
    /// returned [`ErrorKind::Disconnected`] — does the supervisor rebind
    /// and replay.
    pub fn call_with(
        &mut self,
        name: &str,
        frame: &mut [Value],
        options: &CallOptions,
    ) -> Result<u32> {
        match self.stub.call_with(name, frame, options) {
            Ok(status) => Ok(status),
            Err(e) if e.kind() == ErrorKind::Disconnected => {
                self.failover_and_replay(name, frame, options, e)
            }
            Err(e) => Err(e),
        }
    }

    fn failover_and_replay(
        &mut self,
        name: &str,
        frame: &mut [Value],
        options: &CallOptions,
        error: RpcError,
    ) -> Result<u32> {
        self.counters.disconnects.inc();
        // Replay license: `[idempotent]`, or an at-most-once tag that the
        // replay will reuse. Without either, surface the disconnect — the
        // caller decides whether a duplicate execution is acceptable.
        let idempotent = self.stub.op(name).map(|o| o.idempotent).unwrap_or(false);
        let amo = self.stub.at_most_once_state();
        let tagged = amo.is_some() && !options.is_at_least_once();
        if !idempotent && !tagged {
            return Err(error);
        }
        let t0 = self.stub.clock().map_or(0, |c| c.now_ns());
        let failover_call = self.tracer.as_ref().map(|t| t.begin_call());
        let fo_start = self.tracer.as_ref().map_or(0, |t| t.now_ns());
        let n = self.endpoints.len();
        let mut last = error;
        for step in 1..=n {
            let next = (self.current + step) % n;
            let bind_start = self.tracer.as_ref().map_or(0, |t| t.now_ns());
            let mut stub = match (self.endpoints[next])() {
                Ok(s) => s,
                Err(e) => {
                    last = e;
                    continue;
                }
            };
            self.counters.rebinds.inc();
            if let (Some(t), Some(call)) = (&self.tracer, failover_call) {
                t.record(call, Stage::Bind, bind_start, t.now_ns(), next as u64);
            }
            if let Some((binding, next_seq)) = amo {
                // The failed logical call already consumed a sequence
                // number; rewind by one so the replay carries the *same*
                // tag — a server that executed before the disconnect (a
                // restarted primary with a warm reply cache) answers from
                // cache instead of running the handler again.
                let resume_seq = if tagged { next_seq.saturating_sub(1) } else { next_seq };
                stub.resume_at_most_once(binding, resume_seq);
            }
            self.counters.replays.inc();
            let replay_start = self.tracer.as_ref().map_or(0, |t| t.now_ns());
            let outcome = stub.call_with(name, frame, options);
            if let (Some(t), Some(call)) = (&self.tracer, failover_call) {
                t.record(call, Stage::Replay, replay_start, t.now_ns(), next as u64);
            }
            match outcome {
                Ok(status) => {
                    if let Some(c) = stub.clock() {
                        let dt = c.now_ns().saturating_sub(t0);
                        self.counters.recovery_ns_last.set(dt);
                        self.counters.recovery_ns_max.raise_to(dt);
                        self.counters.recovery_ns.record(dt);
                    }
                    if let (Some(t), Some(call)) = (&self.tracer, failover_call) {
                        t.record(call, Stage::Failover, fo_start, t.now_ns(), next as u64);
                    }
                    self.current = next;
                    self.stub = stub;
                    return Ok(status);
                }
                Err(e) if e.kind() == ErrorKind::Disconnected => {
                    // This endpoint is down too; keep walking the list.
                    self.counters.disconnects.inc();
                    last = e;
                }
                Err(e) => {
                    // The new binding works but the call failed on its own
                    // terms (remote status, marshal, deadline): adopt the
                    // binding and surface the error.
                    self.current = next;
                    self.stub = stub;
                    return Err(e);
                }
            }
        }
        Err(last)
    }
}

impl std::fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Supervisor")
            .field("endpoints", &self.endpoints.len())
            .field("current", &self.current)
            .field("stats", &self.stats())
            .finish()
    }
}
