//! Server-side dispatch: unmarshal → work function → marshal.
//!
//! The work function runs *between* the two halves of the server stub, and
//! the wire layout (payloads first) is what lets sink-mode presentations
//! write reply payloads with zero buffering: a server whose presentation
//! says `[dealloc(never)]` (or `[special]`) for an out payload receives a
//! [`ReplySink`] positioned at exactly the right point in the reply
//! message, and writes the payload bytes straight from its own storage —
//! the pipe server marshals directly out of its circular buffer, which is
//! the copy Figure 6 deletes.
//!
//! The same work functions serve a direct caller ([`crate::samedomain`]):
//! run on the caller's own frame, the payload accessors and the sink carry
//! out the plan the two presentations negotiated.

use crate::error::RpcError;
use crate::hooks::HookMap;
use crate::interp::{marshal_then_seal, store_in_place, unmarshal};
use crate::samedomain::{self, OpPlan, SdStats};
use crate::wire::{AnyReader, AnyWriter};
use crate::Result;
use flexrpc_core::compat::OutParamAction::{self, Donate};
use flexrpc_core::program::{CompiledInterface, CompiledOp, SinkSpec, SlotMap};
use flexrpc_core::value::Value;
use flexrpc_marshal::WireFormat;
use std::sync::Arc;

/// A work function: reads arguments and writes results through
/// [`ServerCall`], returning the operation's status word (0 = success).
pub type OpHandler = Box<dyn FnMut(&mut ServerCall<'_, '_>) -> u32 + Send>;

/// The reply-payload sink handed to work functions of sink-mode operations.
pub struct ReplySink<'w> {
    to: SinkTo<'w>,
    specs: &'w [SinkSpec],
    next: usize,
}

/// Where a [`ReplySink`]'s payloads go.
enum SinkTo<'w> {
    /// The reply message, positioned at its sink payloads.
    Wire(&'w mut AnyWriter),
    /// A direct call: the caller's sink slots, one per spec, taken out of
    /// its frame while the work function runs, and the negotiated plan.
    Direct { staged: &'w mut [Value], plan: &'w OpPlan, stats: &'w SdStats },
}

impl ReplySink<'_> {
    /// Number of sink payloads this operation expects.
    pub fn expected(&self) -> usize {
        self.specs.len()
    }

    /// Claims the next sink payload.
    fn claim(&mut self) -> Result<usize> {
        let k = self.next;
        if k == self.specs.len() {
            return Err(RpcError::SinkMisuse(None));
        }
        self.next += 1;
        Ok(k)
    }

    /// Writes the next sink payload from `data` (one copy: storage → wire,
    /// or on a direct call storage → the caller's buffer).
    pub fn put(&mut self, data: &[u8]) -> Result<()> {
        let k = self.claim()?;
        match &mut self.to {
            SinkTo::Wire(writer) => writer.put_bytes(data),
            SinkTo::Direct { staged, stats, .. } => {
                samedomain::put(&mut staged[k], data.len(), |b| b.extend_from_slice(data), stats)
            }
        }
        Ok(())
    }

    /// Writes the next sink payload, exactly `len` bytes, in place: `f`
    /// fills them where they go — the reply message, or on a direct call
    /// the caller's buffer or a donated one — so the payload is produced
    /// in its final position, with no staging copy (the server side of a
    /// `[special]` marshal routine).
    pub fn put_in_place(&mut self, len: usize, f: impl FnOnce(&mut [u8])) -> Result<()> {
        let k = self.claim()?;
        match &mut self.to {
            SinkTo::Wire(writer) => {
                let win = writer.reserve_payload(len);
                writer.fill_window_with(win, |dst| {
                    f(dst);
                    len
                })?;
            }
            SinkTo::Direct { staged, stats, .. } => {
                let fill = |b: &mut Vec<u8>| {
                    b.resize(len, 0);
                    f(b)
                };
                samedomain::put(&mut staged[k], len, fill, stats)
            }
        }
        Ok(())
    }

    /// Writes the next sink payload by gathering segments through `f` —
    /// used by the fbuf-backed pipe server to emit an aggregate's segments
    /// without first concatenating them. `total` must be the exact payload
    /// length; `f` is called once with a gather callback. On a marshalled
    /// call a gather that emits fewer or more bytes is
    /// [`MarshalError::WindowMisuse`], and the whole call fails with it, its
    /// reply empty: the payload is neither zero-padded nor cut short. (A
    /// direct call has no window to misfit; its caller gets what was
    /// emitted.)
    ///
    /// [`MarshalError::WindowMisuse`]: flexrpc_marshal::MarshalError::WindowMisuse
    pub fn put_gather(
        &mut self,
        total: usize,
        f: impl FnOnce(&mut dyn FnMut(&[u8])),
    ) -> Result<()> {
        let k = self.claim()?;
        let writer = match &mut self.to {
            SinkTo::Wire(writer) => writer,
            SinkTo::Direct { staged, stats, .. } => {
                let gather = |b: &mut Vec<u8>| f(&mut |seg: &[u8]| b.extend_from_slice(seg));
                samedomain::put(&mut staged[k], total, gather, stats);
                return Ok(());
            }
        };
        let win = writer.reserve_payload(total);
        let mut off = 0usize;
        writer.fill_window_with(win, |dst| {
            let mut emit = |seg: &[u8]| {
                let end = (off + seg.len()).min(dst.len());
                if off < end {
                    dst[off..end].copy_from_slice(&seg[..end - off]);
                }
                off += seg.len();
            };
            f(&mut emit);
            off
        })?;
        Ok(())
    }

    /// Produces empty payloads for anything the work function skipped (the
    /// error path: a failed read still produces a decodable reply).
    fn finish(mut self) {
        for k in self.next..self.specs.len() {
            match &mut self.to {
                SinkTo::Wire(writer) => writer.put_bytes(&[]),
                SinkTo::Direct { staged, .. } => samedomain::fill(&mut staged[k], |_| {}, None),
            }
        }
    }
}

impl std::fmt::Debug for ReplySink<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ReplySink({}/{} written)", self.next, self.specs.len())
    }
}

/// Everything a work function can touch during one invocation.
pub struct ServerCall<'a, 'w> {
    /// The call frame (arguments unmarshalled, results to be set).
    pub frame: &'a mut [Value],
    /// The raw request message (resolves `Window` arguments).
    pub request: &'a [u8],
    /// The reply-payload sink (sink-mode operations only; see
    /// [`ReplySink::expected`]).
    pub sink: &'a mut ReplySink<'w>,
    slots: &'a SlotMap,
}

impl ServerCall<'_, '_> {
    /// Resolves a slot index by dotted name.
    #[inline]
    pub(crate) fn slot(&self, name: &str) -> Result<usize> {
        self.slots.slot(name).map(|s| s.0).ok_or_else(|| RpcError::NoSlot(name.into()))
    }

    /// Reads a `u32` argument.
    #[inline]
    pub fn u32(&self, name: &str) -> Result<u32> {
        let i = self.slot(name)?;
        self.frame[i].as_u32().ok_or_else(|| RpcError::SlotKind {
            slot: i,
            expected: "u32",
            found: self.frame[i].kind(),
        })
    }

    /// Reads a string argument.
    #[inline]
    pub fn str(&self, name: &str) -> Result<&str> {
        let i = self.slot(name)?;
        self.frame[i].as_str().ok_or_else(|| RpcError::SlotKind {
            slot: i,
            expected: "str",
            found: self.frame[i].kind(),
        })
    }

    /// Reads a byte-payload argument, resolving borrowed windows against
    /// the request message (zero-copy for `[borrowed]` presentations; on a
    /// direct call, the client's own buffer).
    #[inline]
    pub fn bytes(&self, name: &str) -> Result<&[u8]> {
        let i = self.slot(name)?;
        self.frame[i].window_of(self.request).ok_or_else(|| RpcError::SlotKind {
            slot: i,
            expected: "bytes",
            found: self.frame[i].kind(),
        })
    }

    /// Mutable access to a byte payload: the server's own unmarshalled copy
    /// (a `[borrowed]` window is refused), or on a direct call the buffer the
    /// plan copied or the client declared `[trashable]` — a `[preserved]`
    /// server is refused its client's buffer, its promise enforced.
    pub fn bytes_mut(&mut self, name: &str) -> Result<&mut Vec<u8>> {
        let i = self.slot(name)?;
        if let SinkTo::Direct { plan, .. } = &self.sink.to {
            if !plan.modifiable.contains(&i) {
                return Err(RpcError::Preserved(i));
            }
        }
        match &mut self.frame[i] {
            Value::Bytes(b) => Ok(b),
            other => Err(RpcError::SlotKind { slot: i, expected: "bytes", found: other.kind() }),
        }
    }

    /// Produces an `out` payload by filling a buffer: the server's own, which
    /// the reply carries; or on a direct call the caller's when it provided
    /// one (no copy, no allocation), a fresh, donated one otherwise.
    pub fn out_fill(&mut self, name: &str, f: impl FnOnce(&mut Vec<u8>)) -> Result<()> {
        match self.place(name)? {
            Place::Wire(writer) => {
                let mut b = Vec::new();
                f(&mut b);
                writer.put_bytes(&b);
            }
            Place::Slot { value, stats, .. } => samedomain::fill(value.1, f, stats),
        }
        Ok(())
    }

    /// Provides an `out` payload from server-owned storage: a sink payload is
    /// [`ReplySink::put`], any other a refcounted view the reply copies once.
    /// On a direct call the view is lent to a client with no buffer of its
    /// own, and copied once into the client's when it insists on one.
    pub fn provide_out(&mut self, name: &str, data: &Arc<[u8]>) -> Result<()> {
        match self.place(name)? {
            Place::Wire(writer) => writer.put_bytes(data),
            Place::Slot { value, action, stats } => {
                return samedomain::lend(value, action, data, stats)
            }
        }
        Ok(())
    }

    /// Where `out` payload `name` is produced; a sink payload is claimed
    /// from the sink, and must be the next one.
    fn place(&mut self, name: &str) -> Result<Place<'_>> {
        let i = self.slot(name)?;
        let action = match &self.sink.to {
            SinkTo::Direct { plan, .. } => plan.outs.iter().find(|o| o.0 == i).map(|o| o.1),
            // The server's own buffer, donated to the reply marshal.
            SinkTo::Wire(_) => self.slots.slots[i].dir.is_out().then_some(Donate),
        };
        let action = action.ok_or_else(|| RpcError::NoOutPayload(name.into()))?;
        let sink = &mut *self.sink;
        let k = sink.specs.iter().position(|s| s.slot.0 == i);
        if let Some(k) = k {
            if k != sink.next {
                return Err(RpcError::SinkMisuse(Some(i)));
            }
            sink.next += 1;
        }
        Ok(match (&mut sink.to, k) {
            (SinkTo::Wire(writer), Some(_)) => Place::Wire(writer),
            (SinkTo::Wire(_), None) => {
                Place::Slot { value: (i, &mut self.frame[i]), action, stats: None }
            }
            (SinkTo::Direct { staged, stats, .. }, k) => {
                let value = k.map_or(&mut self.frame[i], |k| &mut staged[k]);
                Place::Slot { value: (i, value), action, stats: Some(stats) }
            }
        })
    }

    /// Sets a result slot. A slot that already holds `v`'s variant takes
    /// only its payload, stored in place (`store_in_place!`); any other
    /// takes the whole value. `v` is taken apart before the lookup that can
    /// fail, so its payload stays in registers: the work function's `Value`,
    /// built in narrow stores, is never reloaded wide to be copied in.
    #[inline]
    pub fn set(&mut self, name: &str, v: Value) -> Result<()> {
        match v {
            Value::Bytes(b) => store_in_place!(self.slot_mut(name)?, Bytes, b),
            Value::Str(s) => store_in_place!(self.slot_mut(name)?, Str, s),
            Value::U32(x) => store_in_place!(self.slot_mut(name)?, U32, x),
            Value::U64(x) => store_in_place!(self.slot_mut(name)?, U64, x),
            Value::I32(x) => store_in_place!(self.slot_mut(name)?, I32, x),
            Value::I64(x) => store_in_place!(self.slot_mut(name)?, I64, x),
            Value::Bool(x) => store_in_place!(self.slot_mut(name)?, Bool, x),
            Value::F64(x) => store_in_place!(self.slot_mut(name)?, F64, x),
            v => *self.slot_mut(name)? = v,
        }
        Ok(())
    }

    /// The slot named `name`.
    #[inline]
    fn slot_mut(&mut self, name: &str) -> Result<&mut Value> {
        let i = self.slot(name)?;
        Ok(&mut self.frame[i])
    }
}

/// Where a work function's `out` payload goes.
enum Place<'p> {
    /// The reply message: a sink payload of a marshalled call.
    Wire(&'p mut AnyWriter),
    /// A slot (index, value) and the action producing it: the caller's under
    /// the negotiated plan, counted in `stats`; or the server's own.
    Slot { value: (usize, &'p mut Value), action: OutParamAction, stats: Option<&'p SdStats> },
}

impl std::fmt::Debug for ServerCall<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ServerCall({} slots)", self.frame.len())
    }
}

/// A dispatchable server: compiled programs + hooks + work functions.
///
/// The compiled programs are held behind an [`Arc`] so many server
/// instances — e.g. the serving engine's worker-pool replicas — can share
/// one compilation instead of each paying for its own.
pub struct ServerInterface {
    compiled: Arc<CompiledInterface>,
    format: WireFormat,
    handlers: Vec<Option<OpHandler>>,
    hooks: Vec<HookMap>,
    /// Per-op scratch, reused across dispatches.
    scratch: Vec<OpScratch>,
    /// At-most-once reply cache, consulted by [`ServerInterface::dispatch_tagged`]
    /// when the transport delivers a call tag. `None` = at-least-once. It
    /// records a reply's body, never a transport's header room in front of
    /// it. The server keeps no reply buffer of its own: every reply is
    /// marshalled into the buffer its transport hands it.
    reply_cache: Option<std::sync::Arc<crate::replycache::ReplyCache>>,
}

/// What one operation keeps between its dispatches.
#[derive(Clone)]
struct OpScratch {
    /// The call frame, reset where it lives.
    frame: Vec<Value>,
    /// Largest reply-buffer capacity this operation has reached, a
    /// transport's header room included — the writer's starting capacity,
    /// so its steady-state replies marshal (and presize-reserve) without
    /// reallocating, and a small reply is not handed the room another
    /// operation's large one once needed.
    reply_cap: usize,
}

impl ServerInterface {
    /// Creates a server for `compiled` (the *server-side* presentation's
    /// compilation) speaking `format` on the wire.
    pub fn new(compiled: CompiledInterface, format: WireFormat) -> ServerInterface {
        ServerInterface::new_shared(Arc::new(compiled), format)
    }

    /// Creates a server over an already-shared compilation (no recompile,
    /// no clone — the engine's program-cache path).
    pub fn new_shared(compiled: Arc<CompiledInterface>, format: WireFormat) -> ServerInterface {
        let n = compiled.ops.len();
        ServerInterface {
            compiled,
            format,
            handlers: (0..n).map(|_| None).collect(),
            hooks: vec![HookMap::new(); n],
            scratch: vec![OpScratch { frame: Vec::new(), reply_cap: 64 }; n],
            reply_cache: None,
        }
    }

    /// Enables at-most-once execution: tagged calls record their replies
    /// in `cache` and duplicates replay from it instead of re-executing.
    pub fn set_reply_cache(&mut self, cache: std::sync::Arc<crate::replycache::ReplyCache>) {
        self.reply_cache = Some(cache);
    }

    /// The compiled interface (server presentation).
    pub fn compiled(&self) -> &CompiledInterface {
        &self.compiled
    }

    /// The shared compilation handle (for building further replicas).
    pub fn compiled_arc(&self) -> Arc<CompiledInterface> {
        Arc::clone(&self.compiled)
    }

    /// The wire format this server speaks.
    pub fn format(&self) -> WireFormat {
        self.format
    }

    /// Registers the work function for an operation by name.
    pub fn on(
        &mut self,
        op: &str,
        handler: impl FnMut(&mut ServerCall<'_, '_>) -> u32 + Send + 'static,
    ) -> Result<()> {
        let i = self.compiled.op_index(op).ok_or_else(|| RpcError::NoSuchOp(op.into()))?;
        self.handlers[i] = Some(Box::new(handler));
        Ok(())
    }

    /// Registers `[special]` hooks for an operation by name.
    pub fn hooks_mut(&mut self, op: &str) -> Result<&mut HookMap> {
        let i = self.compiled.op_index(op).ok_or_else(|| RpcError::NoSuchOp(op.into()))?;
        Ok(&mut self.hooks[i])
    }

    /// Dispatches one request: unmarshal, invoke, marshal.
    ///
    /// `rights_in`/`rights_out` are the out-of-band port rights, already
    /// translated into this server's name space by the transport.
    #[inline]
    pub fn dispatch(
        &mut self,
        op_index: usize,
        request: &[u8],
        rights_in: &[u32],
        reply: &mut Vec<u8>,
        rights_out: &mut Vec<u32>,
    ) -> Result<()> {
        self.dispatch_behind(op_index, request, rights_in, 0, reply, rights_out)
    }

    /// [`ServerInterface::dispatch`] with the reply marshalled behind the
    /// first `head` bytes of `reply`, which it keeps (zero-filled where
    /// `reply` is shorter): a transport's header room, which the transport
    /// patches once the reply is sealed. The reply's layout does not depend
    /// on `head`. A failed call leaves `reply` empty.
    fn dispatch_behind(
        &mut self,
        op_index: usize,
        request: &[u8],
        rights_in: &[u32],
        head: usize,
        reply: &mut Vec<u8>,
        rights_out: &mut Vec<u32>,
    ) -> Result<()> {
        if op_index >= self.compiled.ops.len() {
            return Err(RpcError::NoOpIndex(op_index));
        }
        // The reply marshals into the caller's buffer and the call frame is
        // this op's reused scratch, reset where it lives: a warm fixed-size
        // dispatch allocates nothing. The reply is sealed into `reply`, not
        // moved out of the writer, by whoever finished it — the reply
        // marshal, or this when the call failed before it — and a window a
        // work function left open fails the call, not the thread. The buffer
        // is grown to the capacity this op has reached, counted from what it
        // keeps: `reserve` takes a length beyond `len`, so asking it for the
        // capacity itself behind a head would double the buffer every call.
        let mut buf = std::mem::take(reply);
        buf.truncate(head);
        buf.reserve(self.scratch[op_index].reply_cap.saturating_sub(buf.len()));
        let mut writer = AnyWriter::behind(self.format, buf, head);
        let result = match self.run_handler(op_index, request, rights_in, &mut writer) {
            Ok(()) => marshal_then_seal(
                &self.compiled.ops[op_index].reply_marshal,
                &self.scratch[op_index].frame,
                request,
                &mut writer,
                reply,
                &self.hooks[op_index],
                rights_out,
            ),
            Err(e) => {
                let _ = writer.seal_into(reply);
                Err(e)
            }
        };
        let cap = &mut self.scratch[op_index].reply_cap;
        *cap = (*cap).max(reply.capacity());
        if result.is_err() {
            reply.clear();
        }
        result
    }

    /// Like [`ServerInterface::dispatch`], but honouring at-most-once
    /// semantics when both a reply cache is attached and the call carries a
    /// [`CallTag`](crate::policy::CallTag): a duplicate of an already-completed call replays the
    /// cached reply without running the handler; a fresh call executes and
    /// records its reply. Untagged calls (or servers without a cache) fall
    /// through to plain at-least-once dispatch.
    ///
    /// The reply — executed or replayed — is written behind the first
    /// `head` bytes of `reply`, which are kept for the transport to patch
    /// its header into (0: no header room); the cache holds only what
    /// follows them.
    #[allow(clippy::too_many_arguments)] // `head` belongs beside `reply`, the buffer it is kept in
    pub fn dispatch_tagged(
        &mut self,
        op_index: usize,
        request: &[u8],
        rights_in: &[u32],
        tag: Option<crate::policy::CallTag>,
        head: usize,
        reply: &mut Vec<u8>,
        rights_out: &mut Vec<u32>,
    ) -> Result<()> {
        // The cache is borrowed on either side of the dispatch, never
        // cloned: an untagged call touches no refcount. The tag is hashed
        // once, for the replay that misses and the record that follows.
        let hashed = tag.zip(self.reply_cache.as_ref()).map(|(tag, cache)| cache.hashed(tag));
        if let (Some(tag), Some(cache)) = (hashed, &self.reply_cache) {
            if cache.replay_hashed(tag, head, reply, rights_out) {
                return Ok(());
            }
        }
        self.dispatch_behind(op_index, request, rights_in, head, reply, rights_out)?;
        if let (Some(tag), Some(cache)) = (hashed, &self.reply_cache) {
            cache.record_hashed(tag, &reply[head..], rights_out);
        }
        Ok(())
    }

    /// The request unmarshalled into this operation's frame, its work
    /// function run with the reply's sink payloads going to `writer`, and
    /// the status stored in the frame: everything a dispatch does before
    /// the reply marshal.
    fn run_handler(
        &mut self,
        op_index: usize,
        request: &[u8],
        rights_in: &[u32],
        writer: &mut AnyWriter,
    ) -> Result<()> {
        let op: &CompiledOp = &self.compiled.ops[op_index];
        let hooks = &self.hooks[op_index];
        let frame = &mut self.scratch[op_index].frame;
        op.slots.reset_frame(frame);

        let mut reader = AnyReader::new(self.format, request)?;
        unmarshal(
            &op.request_unmarshal,
            frame,
            request,
            &mut reader,
            hooks,
            &mut rights_in.iter().copied(),
        )?;

        let status = {
            let mut sink = ReplySink { to: SinkTo::Wire(writer), specs: &op.sink_params, next: 0 };
            let handler = self.handlers[op_index].as_mut().ok_or(RpcError::NoHandler(op_index))?;
            let mut call = ServerCall { frame, request, sink: &mut sink, slots: &op.slots };
            let status = handler(&mut call);
            sink.finish();
            status
        };

        store_in_place!(&mut frame[op.status_slot().0], U32, status);
        Ok(())
    }

    /// Runs operation `op_index`'s work function on a caller's own `frame`,
    /// with no message either way, its payloads produced under `plan`: the
    /// same-domain binding's call. `staged` holds the caller's sink slots
    /// while the work function runs.
    pub(crate) fn call_direct(
        &mut self,
        op_index: usize,
        frame: &mut [Value],
        plan: &OpPlan,
        stats: &SdStats,
        staged: &mut Vec<Value>,
    ) -> Result<u32> {
        let op: &CompiledOp = &self.compiled.ops[op_index];
        let handler = self.handlers[op_index].as_mut().ok_or(RpcError::NoHandler(op_index))?;
        staged.extend(op.sink_params.iter().map(|s| std::mem::take(&mut frame[s.slot.0])));
        let to = SinkTo::Direct { staged, plan, stats };
        let mut sink = ReplySink { to, specs: &op.sink_params, next: 0 };
        let status =
            handler(&mut ServerCall { frame, request: &[], sink: &mut sink, slots: &op.slots });
        sink.finish();
        for (spec, value) in op.sink_params.iter().zip(staged.drain(..)) {
            frame[spec.slot.0] = value;
        }
        Ok(status)
    }
}

impl std::fmt::Debug for ServerInterface {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerInterface")
            .field("interface", &self.compiled.interface)
            .field("ops", &self.compiled.ops.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexrpc_core::ir::fileio_example;
    use flexrpc_core::present::InterfacePresentation;

    fn compiled() -> CompiledInterface {
        let m = fileio_example();
        let iface = m.interface("FileIO").unwrap();
        let pres = InterfacePresentation::default_for(&m, iface).unwrap();
        CompiledInterface::compile(&m, iface, &pres).unwrap()
    }

    #[test]
    fn dispatch_default_read() {
        let mut srv = ServerInterface::new(compiled(), WireFormat::Cdr);
        srv.on("read", |call| {
            let count = call.u32("count").unwrap() as usize;
            call.set("return", Value::Bytes(vec![0xAB; count])).unwrap();
            0
        })
        .unwrap();

        // Build a request by hand: CDR, payload-first layout → just count.
        let mut w = AnyWriter::new(WireFormat::Cdr);
        w.put_u32(5);
        let request = w.into_bytes();

        let mut reply = Vec::new();
        srv.dispatch(0, &request, &[], &mut reply, &mut Vec::new()).unwrap();

        let mut r = AnyReader::new(WireFormat::Cdr, &reply).unwrap();
        assert_eq!(r.get_bytes_borrowed().unwrap(), vec![0xAB; 5]);
        assert_eq!(r.get_u32().unwrap(), 0, "status");
    }

    #[test]
    fn handler_status_reaches_wire() {
        let mut srv = ServerInterface::new(compiled(), WireFormat::Cdr);
        srv.on("read", |_| 7).unwrap();
        let mut w = AnyWriter::new(WireFormat::Cdr);
        w.put_u32(1);
        let request = w.into_bytes();
        let mut reply = Vec::new();
        srv.dispatch(0, &request, &[], &mut reply, &mut Vec::new()).unwrap();
        let mut r = AnyReader::new(WireFormat::Cdr, &reply).unwrap();
        let _payload = r.get_bytes_borrowed().unwrap();
        assert_eq!(r.get_u32().unwrap(), 7);
    }

    #[test]
    fn missing_handler_reported() {
        let mut srv = ServerInterface::new(compiled(), WireFormat::Cdr);
        let mut w = AnyWriter::new(WireFormat::Cdr);
        w.put_u32(1);
        let request = w.into_bytes();
        let mut reply = Vec::new();
        let err = srv.dispatch(0, &request, &[], &mut reply, &mut Vec::new()).unwrap_err();
        assert_eq!(err, RpcError::NoHandler(0));
    }

    #[test]
    fn bad_op_index_reported() {
        let mut srv = ServerInterface::new(compiled(), WireFormat::Cdr);
        let mut reply = Vec::new();
        assert_eq!(
            srv.dispatch(9, &[], &[], &mut reply, &mut Vec::new()),
            Err(RpcError::NoOpIndex(9))
        );
    }

    #[test]
    fn payload_accessors_on_a_marshalled_call() {
        use flexrpc_core::annot::{apply_pdl, Attr, OpAnnot, ParamAnnot, PdlFile};
        let m = fileio_example();
        let iface = m.interface("FileIO").unwrap();
        let base = InterfacePresentation::default_for(&m, iface).unwrap();
        let annot = |op: &str, param: &str, attr| OpAnnot {
            op: op.into(),
            op_attrs: vec![],
            params: vec![ParamAnnot { param: param.into(), attrs: vec![attr] }],
        };
        let pdl = PdlFile {
            ops: vec![
                annot("write", "data", Attr::Borrowed),
                annot("read", "return", Attr::DeallocNever),
            ],
            ..PdlFile::default()
        };
        let pres = apply_pdl(&m, iface, &base, &pdl).unwrap();
        let mut srv = ServerInterface::new(
            CompiledInterface::compile(&m, iface, &pres).unwrap(),
            WireFormat::Cdr,
        );
        srv.on("write", |call| {
            assert_eq!(call.bytes("data").unwrap(), b"abc");
            assert!(call.bytes_mut("data").is_err(), "a borrowed window is the client's");
            assert!(call.out_fill("data", |_| {}).is_err(), "an in payload");
            0
        })
        .unwrap();
        srv.on("read", |call| {
            // `return` is a sink payload: filling it writes the reply.
            call.out_fill("return", |b| b.extend_from_slice(b"filled")).unwrap();
            assert!(call.sink.put(b"more").is_err(), "claimed by the fill");
            0
        })
        .unwrap();

        let mut w = AnyWriter::new(WireFormat::Cdr);
        w.put_bytes(b"abc");
        let (mut reply, mut rights) = (Vec::new(), Vec::new());
        srv.dispatch(1, &w.into_bytes(), &[], &mut reply, &mut rights).unwrap();
        let mut w = AnyWriter::new(WireFormat::Cdr);
        w.put_u32(6);
        srv.dispatch(0, &w.into_bytes(), &[], &mut reply, &mut rights).unwrap();
        let mut r = AnyReader::new(WireFormat::Cdr, &reply).unwrap();
        assert_eq!(r.get_bytes_borrowed().unwrap(), b"filled");
        assert_eq!(r.get_u32().unwrap(), 0, "status");
    }

    /// `read` under `[dealloc(never)]`: its result goes through the sink.
    fn sink_mode() -> CompiledInterface {
        use flexrpc_core::annot::{apply_pdl, Attr, OpAnnot, ParamAnnot, PdlFile};
        let m = fileio_example();
        let iface = m.interface("FileIO").unwrap();
        let base = InterfacePresentation::default_for(&m, iface).unwrap();
        let never = ParamAnnot { param: "return".into(), attrs: vec![Attr::DeallocNever] };
        let ops = vec![OpAnnot { op: "read".into(), op_attrs: vec![], params: vec![never] }];
        let pres = apply_pdl(&m, iface, &base, &PdlFile { ops, ..PdlFile::default() }).unwrap();
        CompiledInterface::compile(&m, iface, &pres).unwrap()
    }

    /// A payload produced in place lands in the reply message itself,
    /// where the sink's `put` would have copied it.
    #[test]
    fn a_payload_put_in_place_is_written_into_the_reply() {
        let mut srv = ServerInterface::new(sink_mode(), WireFormat::Cdr);
        let wrote = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let at = Arc::clone(&wrote);
        srv.on("read", move |call| {
            let count = call.u32("count").unwrap() as usize;
            call.sink
                .put_in_place(count, |dst| {
                    at.store(dst.as_ptr() as usize, std::sync::atomic::Ordering::Relaxed);
                    dst.fill(0x5A);
                })
                .unwrap();
            assert!(call.sink.put(b"more").is_err(), "one sink payload");
            0
        })
        .unwrap();
        let mut w = AnyWriter::new(WireFormat::Cdr);
        w.put_u32(6);
        let request = w.into_bytes();
        let (mut reply, mut rights) = (Vec::with_capacity(256), Vec::new());
        srv.dispatch(0, &request, &[], &mut reply, &mut rights).unwrap();
        let mut r = AnyReader::new(WireFormat::Cdr, &reply).unwrap();
        let payload = r.get_bytes_borrowed().unwrap();
        assert_eq!(payload, [0x5A; 6]);
        assert_eq!(payload.as_ptr() as usize, wrote.load(std::sync::atomic::Ordering::Relaxed));
        assert_eq!(r.get_u32().unwrap(), 0, "status");
    }

    /// A gather that emits fewer or more bytes than it declared fails its
    /// call with `WindowMisuse`, the reply empty, and the server serves the
    /// next call: a short gather used to leave its window open, and
    /// finishing the reply panicked the dispatching thread; a long one was
    /// cut to fit and sent as if whole.
    #[test]
    fn a_gather_of_the_wrong_length_fails_its_call_not_the_server() {
        use flexrpc_marshal::MarshalError;
        let mut srv = ServerInterface::new(sink_mode(), WireFormat::Cdr);
        srv.on("read", |call| {
            // Three bytes, whatever `count` declared: only `read(3)` is honest.
            let count = call.u32("count").unwrap();
            let gathered = call.sink.put_gather(count as usize, |emit| emit(&[1, 2, 3]));
            assert_eq!(gathered.is_ok(), count == 3, "read({count}): {gathered:?}");
            0
        })
        .unwrap();
        let request = |count: u32| {
            let mut w = AnyWriter::new(WireFormat::Cdr);
            w.put_u32(count);
            w.into_bytes()
        };
        let (mut reply, mut rights) = (Vec::new(), Vec::new());
        for count in [10, 2] {
            let err = srv.dispatch(0, &request(count), &[], &mut reply, &mut rights).unwrap_err();
            assert!(
                matches!(err, RpcError::Marshal(MarshalError::WindowMisuse(_))),
                "read({count}): {err:?}"
            );
            assert!(reply.is_empty(), "read({count}): a failed call's reply is empty");
        }
        srv.dispatch(0, &request(3), &[], &mut reply, &mut rights).unwrap();
        let mut r = AnyReader::new(WireFormat::Cdr, &reply).unwrap();
        assert_eq!(r.get_bytes_borrowed().unwrap(), [1, 2, 3]);
        assert_eq!(r.get_u32().unwrap(), 0, "status");
    }

    /// `set` stores only the payload where the slot already holds the
    /// variant, the whole value otherwise; whatever the slot held before —
    /// the same variant, another, or a stale payload of its own — the slot
    /// ends as plain `*slot = v` leaves it.
    #[test]
    fn set_leaves_every_slot_as_plain_assignment_does() {
        let stale = || {
            let mut bytes = Vec::with_capacity(256);
            bytes.extend_from_slice(&[9; 100]);
            [
                Value::Null,
                Value::U32(1),
                Value::I32(-1),
                Value::U64(1 << 40),
                Value::I64(-(1 << 40)),
                Value::Bool(true),
                Value::F64(1.5),
                Value::Str("a stale string".into()),
                Value::Bytes(bytes),
                Value::Window { off: 3, len: 9 },
                Value::Port(5),
                Value::Shared(Arc::from(vec![7u8; 16])),
            ]
        };
        let fresh = [
            Value::Null,
            Value::U32(2),
            Value::I32(-2),
            Value::U64(2 << 40),
            Value::I64(-(2 << 40)),
            Value::Bool(false),
            Value::F64(-0.25),
            Value::Str("new".into()),
            Value::Bytes(vec![1, 2, 3]),
            Value::Window { off: 0, len: 1 },
            Value::Port(6),
            Value::Shared(Arc::from(vec![8u8; 2])),
        ];
        let compiled = compiled();
        let op = &compiled.ops[0];
        let i = op.slots.slot("return").expect("return slot").0;
        let mut writer = AnyWriter::new(WireFormat::Cdr);
        let assign = |slot: &mut Value, v: Value| *slot = v;
        for before in stale() {
            for v in &fresh {
                let mut plain = before.clone();
                assign(&mut plain, v.clone());
                let mut frame = op.slots.new_frame();
                frame[i] = before.clone();
                let mut sink = ReplySink { to: SinkTo::Wire(&mut writer), specs: &[], next: 0 };
                let mut call = ServerCall {
                    frame: &mut frame,
                    request: &[],
                    sink: &mut sink,
                    slots: &op.slots,
                };
                call.set("return", v.clone()).expect("set");
                assert_eq!(frame[i], plain, "{before:?} set to {v:?}");
            }
        }
    }

    #[test]
    fn call_accessors_typecheck() {
        let mut srv = ServerInterface::new(compiled(), WireFormat::Cdr);
        srv.on("read", |call| {
            assert!(call.str("count").is_err(), "count is u32, not a string");
            assert!(call.slot("nonexistent").is_err());
            call.set("return", Value::Bytes(vec![])).unwrap();
            0
        })
        .unwrap();
        let mut w = AnyWriter::new(WireFormat::Cdr);
        w.put_u32(1);
        let request = w.into_bytes();
        let mut reply = Vec::new();
        srv.dispatch(0, &request, &[], &mut reply, &mut Vec::new()).unwrap();
    }
}
