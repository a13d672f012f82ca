//! The client stub: marshal → transport → unmarshal.

use crate::error::{ErrorKind, RpcError, ShapeMisuse};
use crate::hooks::HookMap;
use crate::interp::{marshal_into, unmarshal};
use crate::policy::{CallControl, CallOptions, CallTag, TenantId};
use crate::transport::Transport;
use crate::wire::AnyReader;
use crate::Result;
use flexrpc_core::present::CallShape;
use flexrpc_core::program::{CompiledInterface, CompiledOp};
use flexrpc_core::value::Value;
use flexrpc_marshal::WireFormat;
use flexrpc_trace::{CallTrace, Stage, TimeSource};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Ring capacity used when tracing is switched on lazily by the first
/// call made under [`CallOptions::traced`].
pub const DEFAULT_TRACE_CAPACITY: usize = 1024;

/// Process-wide allocator of client binding ids for at-most-once tagging.
/// Ids start at 1 so 0 can mean "untagged" on wires that lack an option
/// type (kernel registers).
static NEXT_BINDING: AtomicU64 = AtomicU64::new(1);

/// At-most-once call numbering: the binding id plus the next sequence
/// number to issue. Sequence numbers advance per *logical* call — retry
/// attempts of one call reuse its tag, which is what lets the server's
/// reply cache recognise them.
#[derive(Debug, Clone, Copy)]
struct AmoState {
    binding: u64,
    next_seq: u64,
}

/// A client binding: compiled programs (this endpoint's presentation), its
/// `[special]` hooks, and a transport to the server.
///
/// As with [`crate::ServerInterface`], the compilation sits behind an
/// [`Arc`] so fleets of stubs with the same presentation share one copy.
pub struct ClientStub {
    compiled: Arc<CompiledInterface>,
    format: WireFormat,
    hooks: Vec<HookMap>,
    transport: Box<dyn Transport>,
    /// Scratch reply buffer, reused across calls (no steady-state client
    /// allocation beyond what the presentation itself requires).
    reply_buf: Vec<u8>,
    /// Scratch request buffer, reused across calls.
    request_buf: Vec<u8>,
    /// At-most-once numbering, if enabled on this binding.
    amo: Option<AmoState>,
    /// The tenant every tag issued by this binding is charged to.
    tenant: TenantId,
    /// Per-connection span trace, installed on the first call made under
    /// [`CallOptions::traced`] (or eagerly via [`ClientStub::enable_trace`]).
    /// Boxed so untraced stubs pay one pointer.
    tracer: Option<Box<CallTrace>>,
}

impl ClientStub {
    /// Creates a stub over `transport`.
    pub fn new(
        compiled: CompiledInterface,
        format: WireFormat,
        transport: Box<dyn Transport>,
    ) -> ClientStub {
        ClientStub::new_shared(Arc::new(compiled), format, transport)
    }

    /// Creates a stub over an already-shared compilation.
    pub fn new_shared(
        compiled: Arc<CompiledInterface>,
        format: WireFormat,
        transport: Box<dyn Transport>,
    ) -> ClientStub {
        let n = compiled.ops.len();
        ClientStub {
            compiled,
            format,
            hooks: vec![HookMap::new(); n],
            transport,
            reply_buf: Vec::new(),
            request_buf: Vec::new(),
            amo: None,
            tenant: TenantId::DEFAULT,
            tracer: None,
        }
    }

    /// Declares the tenant this binding's calls are charged to: every
    /// [`CallTag`] it issues carries the id, so a tenant-aware server
    /// (the engine's control plane) accounts queueing and quota against
    /// the right lane. Defaults to [`TenantId::DEFAULT`].
    pub fn set_tenant(&mut self, tenant: TenantId) {
        self.tenant = tenant;
    }

    /// The tenant this binding charges its calls to.
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// Enables span tracing on this binding with a ring of `capacity`
    /// events. Timestamps come from the transport's sim clock
    /// (deterministic); a transport with no clock records structure-only
    /// spans (all timestamps 0). Calls record spans only when made under
    /// [`CallOptions::traced`].
    pub(crate) fn enable_trace(&mut self, capacity: usize) {
        let time = match self.transport.clock() {
            Some(c) => TimeSource::Sim(c),
            None => TimeSource::Disabled,
        };
        self.enable_trace_with(capacity, time);
    }

    /// Enables span tracing with an explicit [`TimeSource`] — e.g.
    /// [`TimeSource::wall`] to profile real elapsed time on paths the
    /// simulation does not charge (explicitly non-deterministic).
    pub fn enable_trace_with(&mut self, capacity: usize, time: TimeSource) {
        self.tracer = Some(Box::new(CallTrace::new(capacity, time)));
    }

    /// The recorded trace, if tracing is enabled.
    pub fn trace(&self) -> Option<&CallTrace> {
        self.tracer.as_deref()
    }

    /// Enables at-most-once execution on this binding: every policy-driven
    /// call carries a fresh [`CallTag`] (process-unique binding id plus a
    /// per-call sequence number), the server's reply cache suppresses
    /// duplicate executions, and in exchange *any* operation may retry —
    /// including after a disconnect — not just `[idempotent]` ones.
    pub fn enable_at_most_once(&mut self) {
        self.amo =
            Some(AmoState { binding: NEXT_BINDING.fetch_add(1, Ordering::Relaxed), next_seq: 0 });
    }

    /// Resumes at-most-once numbering from a previous binding — the
    /// supervisor's rebind path, so a replayed call keeps the tag the dead
    /// connection issued and the standby's (or restarted primary's) cache
    /// still recognises it.
    pub fn resume_at_most_once(&mut self, binding: u64, next_seq: u64) {
        self.amo = Some(AmoState { binding, next_seq });
    }

    /// The at-most-once numbering state `(binding id, next sequence)`,
    /// if enabled. What a supervisor carries across a rebind.
    pub fn at_most_once_state(&self) -> Option<(u64, u64)> {
        self.amo.map(|a| (a.binding, a.next_seq))
    }

    /// The compiled interface (client presentation).
    pub fn compiled(&self) -> &CompiledInterface {
        &self.compiled
    }

    /// The sim clock of this stub's transport world, if it has one.
    pub fn clock(&self) -> Option<Arc<flexrpc_clock::SimClock>> {
        self.transport.clock()
    }

    /// Looks up a compiled operation by name.
    pub fn op(&self, name: &str) -> Result<&CompiledOp> {
        self.compiled.op(name).ok_or_else(|| RpcError::NoSuchOp(name.into()))
    }

    /// A fresh call frame for an operation.
    pub fn new_frame(&self, name: &str) -> Result<Vec<Value>> {
        Ok(self.op(name)?.slots.new_frame())
    }

    /// `[special]` hooks for an operation (register before calling).
    pub fn hooks_mut(&mut self, name: &str) -> Result<&mut HookMap> {
        let i = self.compiled.op_index(name).ok_or_else(|| RpcError::NoSuchOp(name.into()))?;
        Ok(&mut self.hooks[i])
    }

    /// Invokes an operation by name. In-slots of `frame` must be filled;
    /// out-slots are written on return. Returns the status word.
    ///
    /// Error presentation follows `[comm_status]`: with it, every status is
    /// returned as a value; without it, a non-zero status surfaces as
    /// [`RpcError::Remote`] (the exception path).
    pub fn call(&mut self, name: &str, frame: &mut [Value]) -> Result<u32> {
        let i = self.compiled.op_index(name).ok_or_else(|| RpcError::NoSuchOp(name.into()))?;
        self.call_index(i, frame)
    }

    /// Invokes an operation by name under `options`: the deadline is
    /// resolved against the transport's sim clock and enforced at every
    /// blocking point; transient failures are retried per the policy —
    /// but only if the operation's presentation declared `[idempotent]`.
    pub fn call_with(
        &mut self,
        name: &str,
        frame: &mut [Value],
        options: &CallOptions,
    ) -> Result<u32> {
        let i = self.compiled.op_index(name).ok_or_else(|| RpcError::NoSuchOp(name.into()))?;
        self.call_index_with(i, frame, options)
    }

    /// Invokes an operation by index under `options`.
    pub fn call_index_with(
        &mut self,
        op_index: usize,
        frame: &mut [Value],
        options: &CallOptions,
    ) -> Result<u32> {
        let op = op_at(&self.compiled, op_index)?;
        // Retry license: `[idempotent]` as declared, or the binding's
        // at-most-once mode (the server's reply cache makes a resend
        // observationally one execution). Checked before the first send,
        // not after a failure. A per-call `at_least_once` opt-out falls
        // back to the declared contract.
        let tagged = self.amo.is_some() && !options.is_at_least_once();
        if let Some(policy) = options.retry_policy() {
            policy.check_op_with(op, tagged)?;
        }
        // The clock is what a deadline is resolved against and a backoff
        // is spent on; a call with neither does not ask for the handle.
        let timed = options.deadline_ns().is_some() || options.retry_policy().is_some();
        let clock = if timed { self.transport.clock() } else { None };
        // One tag and one trace call number per *logical* call: every retry
        // attempt below reuses them, so the server can tell a resend from a
        // new call.
        let (ctl, trace_call) = self.begin(options, clock.as_ref())?;
        let (deadline_ns, tag) = (ctl.deadline_ns, ctl.tag);
        let max_attempts = options.retry_policy().map_or(1, |p| p.max_attempts());
        let mut attempt = 1u32;
        loop {
            match self.call_once(op_index, frame, &ctl, trace_call) {
                Ok(status) => return Ok(status),
                Err(e) => {
                    // A disconnect is not retryable in general (the channel
                    // is gone), but a tagged call may resend: if the server
                    // executed before the connection died, the reply cache
                    // answers; if it crashed first, nothing executed. Either
                    // way at-most-once holds.
                    let may_retry = matches!(
                        (e.kind(), tag),
                        (ErrorKind::Retryable, _) | (ErrorKind::Disconnected, Some(_))
                    );
                    if !may_retry || attempt >= max_attempts {
                        return Err(e);
                    }
                    let policy = options.retry_policy().expect("attempts > 1 implies a policy");
                    // Back off on the sim clock (the simulated world's
                    // version of sleeping), then re-check the deadline:
                    // backoff must not be spent past it.
                    let backoff = policy.backoff_ns(attempt);
                    let t0 = match (&self.tracer, trace_call) {
                        (Some(t), Some(_)) => t.now_ns(),
                        _ => 0,
                    };
                    if let Some(c) = &clock {
                        c.advance_ns(backoff);
                    }
                    // The retry span covers the backoff window; detail is
                    // the attempt number that failed.
                    if let (Some(t), Some(call)) = (self.tracer.as_mut(), trace_call) {
                        let t1 = t.now_ns();
                        t.record(call, Stage::Retry, t0, t1, attempt as u64);
                    }
                    if let (Some(d), Some(c)) = (deadline_ns, &clock) {
                        if c.now_ns() > d {
                            return Err(RpcError::DeadlineExceeded);
                        }
                    }
                    attempt += 1;
                }
            }
        }
    }

    /// Invokes an operation by index (the dispatch key).
    pub fn call_index(&mut self, op_index: usize, frame: &mut [Value]) -> Result<u32> {
        self.call_once(op_index, frame, &CallControl::none(), None)
    }

    /// What every policy-driven entry settles before its first send: the
    /// absolute deadline on `clock`, the at-most-once tag (one per logical
    /// call, unless the call opted out) and the trace's call number — a
    /// ring of default capacity is installed when tracing was asked for but
    /// never enabled.
    #[inline]
    fn begin(
        &mut self,
        options: &CallOptions,
        clock: Option<&Arc<flexrpc_clock::SimClock>>,
    ) -> Result<(CallControl, Option<u64>)> {
        let deadline_ns = match (options.deadline_ns(), clock) {
            (Some(d), Some(c)) => Some(c.now_ns().saturating_add(d)),
            (Some(_), None) => return Err(RpcError::NoClock("deadlines")),
            (None, _) => None,
        };
        let tenant = self.tenant;
        let tag = match &mut self.amo {
            Some(a) if !options.is_at_least_once() => {
                let t = CallTag::for_tenant(a.binding, a.next_seq, tenant);
                a.next_seq += 1;
                Some(t)
            }
            _ => None,
        };
        if options.is_traced() && self.tracer.is_none() {
            self.enable_trace(DEFAULT_TRACE_CAPACITY);
        }
        let trace_call =
            if options.is_traced() { self.tracer.as_mut().map(|t| t.begin_call()) } else { None };
        Ok((CallControl { deadline_ns, tag }, trace_call))
    }

    fn call_once(
        &mut self,
        op_index: usize,
        frame: &mut [Value],
        ctl: &CallControl,
        trace_call: Option<u64>,
    ) -> Result<u32> {
        let op = op_at(&self.compiled, op_index)?;
        // A `[oneway]` op has no reply to wait for; the unary entry point
        // would block forever on a real wire. (`[stream]` ops do ride the
        // unary exchange — each frame is one tagged call, and the reply
        // carries the credit back.)
        if op.call_shape == CallShape::Oneway {
            let (shape, entry) = (op.call_shape, "call");
            return Err(RpcError::ShapeMisuse(ShapeMisuse::Entry { op: op_index, shape, entry }));
        }
        let hooks = &self.hooks[op_index];
        // Both scratch buffers are used where they live: the request is
        // marshalled into `request_buf`, the transport fills `reply_buf`.
        let (mut span, rights) = marshal_request(
            self.format,
            op,
            hooks,
            frame,
            &mut self.request_buf,
            &mut self.tracer,
            trace_call,
        )?;

        let mut rights_out = Vec::new();
        let reply = &mut self.reply_buf;
        let outcome =
            self.transport.call_with(op, &self.request_buf, &rights, reply, &mut rights_out, ctl);
        if let Some(span) = &mut span {
            span.stage(
                Stage::Transport,
                outcome.as_ref().map_or(0, |off| (reply.len() - off) as u64),
            );
        }
        let off = outcome?;

        // The unmarshal's outcome is checked where it lands and the status
        // read from the frame at the return: no `Result<u32>` is built early
        // and carried across the span and the drops below, to be copied
        // whole into the return slot.
        let body = &reply[off..];
        let unmarshalled = match AnyReader::new(self.format, body) {
            Ok(mut reader) => unmarshal(
                &op.reply_unmarshal,
                frame,
                body,
                &mut reader,
                hooks,
                &mut rights_out.iter().copied(),
            ),
            Err(e) => Err(e.into()),
        };
        if let Some(span) = &mut span {
            span.stage(Stage::Unmarshal, op_index as u64);
        }
        unmarshalled?;
        let status = frame[op.status_slot().0].as_u32().expect("status slot is always u32");
        if status != 0 && !op.comm_status {
            return Err(RpcError::Remote(status));
        }
        Ok(status)
    }

    /// Sends a `[oneway]` notification by name: the in-slots of `frame` are
    /// marshalled and delivered with **no reply wait** — no reply slot is
    /// allocated, no XID is matched, and the call returns as soon as the
    /// transport accepts the message. The operation's presentation must
    /// declare `[oneway]`; anything else is a [`RpcError::ShapeMisuse`].
    pub fn notify(&mut self, name: &str, frame: &mut [Value]) -> Result<()> {
        let i = self.compiled.op_index(name).ok_or_else(|| RpcError::NoSuchOp(name.into()))?;
        self.notify_once(i, frame, &CallControl::none(), None)
    }

    /// Sends a `[oneway]` notification under `options`: the deadline is
    /// resolved against the transport's sim clock and checked before the
    /// send; an at-most-once binding tags the notification (a duplicated
    /// datagram executes once — the server's reply cache suppresses the
    /// copy even though no reply travels back). Retry policies do not
    /// apply — with no reply there is no observable failure to retry on.
    pub fn notify_with(
        &mut self,
        name: &str,
        frame: &mut [Value],
        options: &CallOptions,
    ) -> Result<()> {
        let i = self.compiled.op_index(name).ok_or_else(|| RpcError::NoSuchOp(name.into()))?;
        let clock = self.transport.clock();
        let (ctl, trace_call) = self.begin(options, clock.as_ref())?;
        self.notify_once(i, frame, &ctl, trace_call)
    }

    fn notify_once(
        &mut self,
        op_index: usize,
        frame: &mut [Value],
        ctl: &CallControl,
        trace_call: Option<u64>,
    ) -> Result<()> {
        let op = op_at(&self.compiled, op_index)?;
        if op.call_shape != CallShape::Oneway {
            let (shape, entry) = (op.call_shape, "notify");
            return Err(RpcError::ShapeMisuse(ShapeMisuse::Entry { op: op_index, shape, entry }));
        }
        let (mut span, rights) = marshal_request(
            self.format,
            op,
            &self.hooks[op_index],
            frame,
            &mut self.request_buf,
            &mut self.tracer,
            trace_call,
        )?;
        let outcome = self.transport.send_oneway(op, &self.request_buf, &rights, ctl);
        if let Some(span) = &mut span {
            span.stage(Stage::Notify, self.request_buf.len() as u64);
        }
        outcome
    }
}

/// The operation a dispatch key names.
#[inline]
fn op_at(compiled: &CompiledInterface, op_index: usize) -> Result<&CompiledOp> {
    compiled.ops.get(op_index).ok_or(RpcError::NoOpIndex(op_index))
}

/// The spans of one traced call. Stage boundaries share timestamps: each
/// stage runs from the previous one's end to now, so four clock reads cover
/// the three client-side spans. Untraced calls have none.
struct Span<'t> {
    call: u64,
    mark: u64,
    trace: &'t mut CallTrace,
}

impl Span<'_> {
    #[inline]
    fn stage(&mut self, stage: Stage, detail: u64) {
        let now = self.trace.now_ns();
        self.trace.record(self.call, stage, self.mark, now, detail);
        self.mark = now;
    }
}

/// The prologue of a call and of a notification: marshals `frame`'s
/// in-slots into `request_buf`, in place (`interp::marshal_into` builds the
/// writer over it and seals the message back into it, failed or not), under
/// a [`Stage::Marshal`] span when the call is traced, and returns that
/// span's successor with the port rights the request carries. Inlining is
/// forced: left to the compiler this stayed a call, its `Result` of a span
/// and a vector went through memory, and `null_loopback` read 4.6 % slower
/// (6 of 6 pairs).
#[inline(always)]
fn marshal_request<'t>(
    format: WireFormat,
    op: &CompiledOp,
    hooks: &HookMap,
    frame: &mut [Value],
    request_buf: &mut Vec<u8>,
    tracer: &'t mut Option<Box<CallTrace>>,
    trace_call: Option<u64>,
) -> Result<(Option<Span<'t>>, Vec<u32>)> {
    let mut span = match trace_call {
        Some(call) => tracer.as_deref_mut().map(|t| Span { call, mark: t.now_ns(), trace: t }),
        None => None,
    };
    let mut rights = Vec::new();
    marshal_into(&op.request_marshal, frame, format, request_buf, hooks, &mut rights)?;
    if let Some(span) = &mut span {
        span.stage(Stage::Marshal, request_buf.len() as u64);
    }
    Ok((span, rights))
}

impl std::fmt::Debug for ClientStub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientStub")
            .field("interface", &self.compiled.interface)
            .field("format", &self.format.name())
            .finish()
    }
}
