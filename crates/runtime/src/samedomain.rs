//! Same-domain invocation: RPC short-circuited to a procedure call.
//!
//! §4.4 of the paper: when client and server share a protection domain, the
//! call can skip marshalling entirely — but the RPC system's *semantics*
//! still force copies unless invocation semantics are derived from both
//! sides' presentation attributes. At bind time this module evaluates the
//! negotiation rules in [`flexrpc_core::compat`] once per payload
//! parameter and bakes the result into a per-op *plan*:
//!
//! * `in` payloads: pass the client's buffer by reference, or copy it in
//!   the stub — copy iff the client needs its buffer intact (`!trashable`)
//!   **and** the server wants to modify (`!preserved`). The promise is also
//!   *enforced*: a work function that declared `preserved` is refused
//!   mutable access at run time.
//! * `out` payloads: fill the caller's buffer directly, donate a fresh
//!   buffer, lend server-owned storage by refcounted view, or — only when
//!   both sides insist on owning the bytes — copy in the stub.
//!
//! Copies and allocations are counted so tests can assert the schedule and
//! Figure 10/11 benches can report it.

use crate::error::RpcError;
use crate::Result;
use flexrpc_core::compat::{in_param_action, out_param_action, InParamAction, OutParamAction};
use flexrpc_core::ir::{Interface, Module, Type};
use flexrpc_core::present::InterfacePresentation;
use flexrpc_core::program::{CompiledInterface, SlotMap};
use flexrpc_core::value::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Copy/alloc counters for the same-domain path.
#[derive(Debug, Default)]
pub struct SdStats {
    /// Buffer copies performed by the binding (the "stub").
    pub stub_copies: AtomicU64,
    /// Bytes moved by those copies.
    pub bytes_copied: AtomicU64,
    /// Buffers the binding allocated on behalf of an endpoint.
    pub stub_allocs: AtomicU64,
}

impl SdStats {
    /// (copies, bytes, allocs) snapshot.
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.stub_copies.load(Ordering::Relaxed),
            self.bytes_copied.load(Ordering::Relaxed),
            self.stub_allocs.load(Ordering::Relaxed),
        )
    }
}

/// One payload parameter's bind-time plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct InPlan {
    slot: usize,
    action: InParamAction,
    /// Whether the work function may mutate the buffer it sees.
    may_modify: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OutPlan {
    slot: usize,
    action: OutParamAction,
}

/// A work function for the same-domain path.
pub type SdHandler = Box<dyn FnMut(&mut SdCall<'_>) -> u32 + Send>;

struct SdOp {
    name: String,
    slots: SlotMap,
    ins: Vec<InPlan>,
    outs: Vec<OutPlan>,
    handler: Option<SdHandler>,
}

/// A bound same-domain connection.
pub struct SameDomain {
    ops: Vec<SdOp>,
    stats: Arc<SdStats>,
    /// Scratch for originals set aside during protective copies (reused so
    /// steady-state calls do not allocate bookkeeping).
    saved_scratch: Vec<(usize, Value)>,
}

impl SameDomain {
    /// Binds a client presentation to a server presentation of `iface`,
    /// negotiating every payload parameter's invocation semantics.
    ///
    /// The slot layout comes from the client presentation's compilation
    /// (both presentations share it for everything the frame stores).
    pub fn bind(
        module: &Module,
        iface: &Interface,
        client: &InterfacePresentation,
        server: &InterfacePresentation,
    ) -> Result<SameDomain> {
        let compiled = CompiledInterface::compile(module, iface, client)?;
        let mut ops = Vec::with_capacity(iface.ops.len());
        for (op, cop) in iface.ops.iter().zip(&compiled.ops) {
            let cpres = client.op(&op.name).expect("client pres covers all ops");
            let spres = server.op(&op.name).expect("server pres covers all ops");
            let mut ins = Vec::new();
            let mut outs = Vec::new();
            for (i, p) in op.params.iter().enumerate() {
                if !module.resolve(&p.ty)?.is_payload() {
                    continue;
                }
                let slot = cop.slots.slot(&p.name).expect("payload params own a slot").0;
                let (cp, sp) = (&cpres.params[i], &spres.params[i]);
                if p.dir.is_in() {
                    let action = in_param_action(cp, sp);
                    ins.push(InPlan {
                        slot,
                        action,
                        may_modify: cp.trashable || action == InParamAction::CopyInStub,
                    });
                }
                if p.dir.is_out() {
                    outs.push(OutPlan { slot, action: out_param_action(cp, sp) });
                }
            }
            if op.ret != Type::Void && module.resolve(&op.ret)?.is_payload() {
                let slot = cop.slots.slot("return").expect("result slot").0;
                outs.push(OutPlan { slot, action: out_param_action(&cpres.result, &spres.result) });
            }
            ops.push(SdOp {
                name: op.name.clone(),
                slots: cop.slots.clone(),
                ins,
                outs,
                handler: None,
            });
        }
        Ok(SameDomain { ops, stats: Arc::new(SdStats::default()), saved_scratch: Vec::new() })
    }

    /// Registers the work function for an operation.
    pub fn on(
        &mut self,
        op: &str,
        handler: impl FnMut(&mut SdCall<'_>) -> u32 + Send + 'static,
    ) -> Result<()> {
        let o = self
            .ops
            .iter_mut()
            .find(|o| o.name == op)
            .ok_or_else(|| RpcError::NoSuchOp(op.into()))?;
        o.handler = Some(Box::new(handler));
        Ok(())
    }

    /// Copy/alloc counters.
    pub fn stats(&self) -> &SdStats {
        &self.stats
    }

    /// A fresh frame for an operation.
    pub fn new_frame(&self, op: &str) -> Result<Vec<Value>> {
        let o =
            self.ops.iter().find(|o| o.name == op).ok_or_else(|| RpcError::NoSuchOp(op.into()))?;
        Ok(o.slots.new_frame())
    }

    /// Invokes an operation: applies the in-plan, runs the work function,
    /// applies the out-plan. Returns the status word.
    pub fn call(&mut self, op: &str, frame: &mut [Value]) -> Result<u32> {
        let idx = self
            .ops
            .iter()
            .position(|o| o.name == op)
            .ok_or_else(|| RpcError::NoSuchOp(op.into()))?;
        self.call_index(idx, frame)
    }

    /// Invokes by operation index.
    pub fn call_index(&mut self, idx: usize, frame: &mut [Value]) -> Result<u32> {
        let o =
            self.ops.get_mut(idx).ok_or_else(|| RpcError::NoSuchOp(format!("op index {idx}")))?;

        // In-plan: copy in the stub where negotiation demanded it, keeping
        // the client's original aside for restoration.
        let mut saved = std::mem::take(&mut self.saved_scratch);
        saved.clear();
        for plan in &o.ins {
            if plan.action == InParamAction::CopyInStub {
                if let Value::Bytes(b) = &frame[plan.slot] {
                    let copy = b.clone(); // The stub's protective copy.
                    SdStats::add_copy(&self.stats, copy.len());
                    saved.push((
                        plan.slot,
                        std::mem::replace(&mut frame[plan.slot], Value::Bytes(copy)),
                    ));
                }
            }
        }

        let status = {
            let handler = o
                .handler
                .as_mut()
                .ok_or_else(|| RpcError::NoSuchOp(format!("no handler for `{}`", o.name)))?;
            let mut call =
                SdCall { frame, slots: &o.slots, ins: &o.ins, outs: &o.outs, stats: &self.stats };
            handler(&mut call)
        };

        // Restore the client's originals over the stub's scratch copies.
        for (slot, original) in saved.drain(..) {
            frame[slot] = original;
        }
        self.saved_scratch = saved;
        Ok(status)
    }
}

impl SdStats {
    fn add_copy(stats: &SdStats, bytes: usize) {
        stats.stub_copies.fetch_add(1, Ordering::Relaxed);
        stats.bytes_copied.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for SameDomain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SameDomain({} ops)", self.ops.len())
    }
}

/// What a same-domain work function can touch.
pub struct SdCall<'a> {
    frame: &'a mut [Value],
    slots: &'a SlotMap,
    ins: &'a [InPlan],
    outs: &'a [OutPlan],
    stats: &'a SdStats,
}

impl SdCall<'_> {
    fn slot(&self, name: &str) -> Result<usize> {
        self.slots
            .slot(name)
            .map(|s| s.0)
            .ok_or_else(|| RpcError::NoSuchOp(format!("no slot named `{name}`")))
    }

    /// Reads a scalar `u32` argument.
    pub fn u32(&self, name: &str) -> Result<u32> {
        let i = self.slot(name)?;
        self.frame[i].as_u32().ok_or(RpcError::SlotKind {
            slot: i,
            expected: "u32",
            found: self.frame[i].kind(),
        })
    }

    /// Sets a scalar slot.
    pub fn set(&mut self, name: &str, v: Value) -> Result<()> {
        let i = self.slot(name)?;
        self.frame[i] = v;
        Ok(())
    }

    /// Reads an `in` payload.
    pub fn in_bytes(&self, name: &str) -> Result<&[u8]> {
        let i = self.slot(name)?;
        self.frame[i].window_of(&[]).ok_or(RpcError::SlotKind {
            slot: i,
            expected: "bytes",
            found: self.frame[i].kind(),
        })
    }

    /// Mutable access to an `in` payload — only granted when the plan made
    /// a protective copy or the client declared the buffer `[trashable]`.
    /// A server that declared `[preserved]` is refused here, enforcing its
    /// promise at run time.
    pub fn in_bytes_mut(&mut self, name: &str) -> Result<&mut Vec<u8>> {
        let i = self.slot(name)?;
        let plan = self
            .ins
            .iter()
            .find(|p| p.slot == i)
            .ok_or_else(|| RpcError::NoSuchOp(format!("`{name}` is not an in payload")))?;
        if !plan.may_modify {
            return Err(RpcError::Transport(format!(
                "presentation forbids modifying `{name}`: client kept it, server promised [preserved]"
            )));
        }
        match &mut self.frame[i] {
            Value::Bytes(b) => Ok(b),
            other => {
                let found = other.kind();
                Err(RpcError::SlotKind { slot: i, expected: "bytes", found })
            }
        }
    }

    fn out_plan(&self, slot: usize) -> Result<OutPlan> {
        self.outs
            .iter()
            .copied()
            .find(|p| p.slot == slot)
            .ok_or_else(|| RpcError::NoSuchOp(format!("slot {slot} is not an out payload")))
    }

    /// Produces an `out` payload by filling a buffer: the caller's buffer
    /// when it provided one (direct fill — no copy, no allocation), a fresh
    /// buffer otherwise (donation — one allocation).
    pub fn out_fill(&mut self, name: &str, f: impl FnOnce(&mut Vec<u8>)) -> Result<()> {
        let i = self.slot(name)?;
        let _plan = self.out_plan(i)?;
        match &mut self.frame[i] {
            Value::Bytes(b) if b.capacity() > 0 => {
                // Caller-provided buffer: fill in place.
                b.clear();
                f(b);
            }
            v => {
                // No caller buffer: donate a fresh one.
                self.stats.stub_allocs.fetch_add(1, Ordering::Relaxed);
                let mut b = Vec::new();
                f(&mut b);
                *v = Value::Bytes(b);
            }
        }
        Ok(())
    }

    /// Provides an `out` payload from server-owned storage. If the client
    /// has no buffer of its own, the storage is *lent* by refcounted view —
    /// zero copies, zero allocations. If the client insists on its own
    /// buffer, the stub performs the one unavoidable copy.
    pub fn provide_out(&mut self, name: &str, data: &Arc<[u8]>) -> Result<()> {
        let i = self.slot(name)?;
        let plan = self.out_plan(i)?;
        match plan.action {
            OutParamAction::CopyInStub | OutParamAction::DirectFill => {
                // The client owns a buffer; the stub copies into it.
                match &mut self.frame[i] {
                    Value::Bytes(b) => {
                        b.clear();
                        b.extend_from_slice(data);
                        SdStats::add_copy(self.stats, data.len());
                    }
                    other => {
                        let found = other.kind();
                        return Err(RpcError::SlotKind { slot: i, expected: "bytes", found });
                    }
                }
            }
            OutParamAction::Donate => {
                // Lend the storage: refcount bump only.
                self.frame[i] = Value::Shared(Arc::clone(data));
            }
        }
        Ok(())
    }
}

impl std::fmt::Debug for SdCall<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SdCall({} slots)", self.frame.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexrpc_core::annot::{apply_pdl, Attr, OpAnnot, ParamAnnot, PdlFile};
    use flexrpc_core::ir::fileio_example;

    fn presentations(
        client_attrs: Vec<(&str, &str, Vec<Attr>)>,
        server_attrs: Vec<(&str, &str, Vec<Attr>)>,
    ) -> (flexrpc_core::ir::Module, InterfacePresentation, InterfacePresentation) {
        let m = fileio_example();
        let iface = m.interface("FileIO").unwrap();
        let base = InterfacePresentation::default_for(&m, iface).unwrap();
        let apply = |attrs: Vec<(&str, &str, Vec<Attr>)>| {
            let mut pdl = PdlFile::default();
            for (op, param, a) in attrs {
                pdl.ops.push(OpAnnot {
                    op: op.into(),
                    op_attrs: vec![],
                    params: vec![ParamAnnot { param: param.into(), attrs: a }],
                });
            }
            apply_pdl(&m, iface, &base, &pdl).unwrap()
        };
        let c = apply(client_attrs);
        let s = apply(server_attrs);
        (m, c, s)
    }

    #[test]
    fn default_in_param_copies_once() {
        let (m, c, s) = presentations(vec![], vec![]);
        let iface = m.interface("FileIO").unwrap();
        let mut sd = SameDomain::bind(&m, iface, &c, &s).unwrap();
        sd.on("write", |call| {
            // The server may modify: the stub made it a private copy.
            let b = call.in_bytes_mut("data").unwrap();
            b[0] = 0xFF;
            0
        })
        .unwrap();
        let mut frame = sd.new_frame("write").unwrap();
        frame[0] = Value::Bytes(vec![1, 2, 3]);
        sd.call("write", &mut frame).unwrap();
        let (copies, bytes, _) = sd.stats().snapshot();
        assert_eq!((copies, bytes), (1, 3));
        // The client's buffer survived the server's trashing.
        assert_eq!(frame[0], Value::Bytes(vec![1, 2, 3]));
    }

    #[test]
    fn trashable_skips_the_copy_and_trashes() {
        let (m, c, s) = presentations(vec![("write", "data", vec![Attr::Trashable])], vec![]);
        let iface = m.interface("FileIO").unwrap();
        let mut sd = SameDomain::bind(&m, iface, &c, &s).unwrap();
        sd.on("write", |call| {
            call.in_bytes_mut("data").unwrap()[0] = 0xFF;
            0
        })
        .unwrap();
        let mut frame = sd.new_frame("write").unwrap();
        frame[0] = Value::Bytes(vec![1, 2, 3]);
        sd.call("write", &mut frame).unwrap();
        assert_eq!(sd.stats().snapshot().0, 0, "no stub copy");
        assert_eq!(frame[0], Value::Bytes(vec![0xFF, 2, 3]), "client buffer trashed, as allowed");
    }

    #[test]
    fn preserved_server_refused_mutation() {
        let (m, c, s) = presentations(vec![], vec![("write", "data", vec![Attr::Preserved])]);
        let iface = m.interface("FileIO").unwrap();
        let mut sd = SameDomain::bind(&m, iface, &c, &s).unwrap();
        sd.on("write", |call| {
            assert!(call.in_bytes_mut("data").is_err(), "promise enforced");
            assert_eq!(call.in_bytes("data").unwrap(), &[9, 9]);
            0
        })
        .unwrap();
        let mut frame = sd.new_frame("write").unwrap();
        frame[0] = Value::Bytes(vec![9, 9]);
        sd.call("write", &mut frame).unwrap();
        assert_eq!(sd.stats().snapshot().0, 0, "borrow semantics: no copy");
    }

    #[test]
    fn out_direct_fill_into_caller_buffer() {
        let (m, c, s) = presentations(vec![("read", "return", vec![Attr::AllocCaller])], vec![]);
        let iface = m.interface("FileIO").unwrap();
        let mut sd = SameDomain::bind(&m, iface, &c, &s).unwrap();
        sd.on("read", |call| {
            let n = call.u32("count").unwrap() as usize;
            call.out_fill("return", |b| b.extend(std::iter::repeat_n(7u8, n))).unwrap();
            0
        })
        .unwrap();
        let mut frame = sd.new_frame("read").unwrap();
        frame[0] = Value::U32(4);
        frame[1] = Value::Bytes(Vec::with_capacity(16)); // Caller's buffer.
        let ptr = frame[1].as_bytes().unwrap().as_ptr();
        sd.call("read", &mut frame).unwrap();
        assert_eq!(frame[1].as_bytes().unwrap(), &[7, 7, 7, 7]);
        assert_eq!(frame[1].as_bytes().unwrap().as_ptr(), ptr, "filled in place");
        let (copies, _, allocs) = sd.stats().snapshot();
        assert_eq!((copies, allocs), (0, 0));
    }

    #[test]
    fn out_donate_lends_server_storage_zero_copy() {
        let (m, c, s) = presentations(vec![], vec![("read", "return", vec![Attr::DeallocNever])]);
        let iface = m.interface("FileIO").unwrap();
        let mut sd = SameDomain::bind(&m, iface, &c, &s).unwrap();
        let storage: Arc<[u8]> = Arc::from(&b"server-owned"[..]);
        let st = Arc::clone(&storage);
        sd.on("read", move |call| {
            call.provide_out("return", &st).unwrap();
            0
        })
        .unwrap();
        let mut frame = sd.new_frame("read").unwrap();
        frame[0] = Value::U32(12);
        sd.call("read", &mut frame).unwrap();
        assert_eq!(frame[1].window_of(&[]).unwrap(), b"server-owned");
        let (copies, _, allocs) = sd.stats().snapshot();
        assert_eq!((copies, allocs), (0, 0), "lent by refcounted view");
        assert!(matches!(frame[1], Value::Shared(_)));
    }

    #[test]
    fn out_mismatch_copies_once_in_stub() {
        // Client insists on its buffer, server insists on its storage.
        let (m, c, s) = presentations(
            vec![("read", "return", vec![Attr::AllocCaller])],
            vec![("read", "return", vec![Attr::DeallocNever])],
        );
        let iface = m.interface("FileIO").unwrap();
        let mut sd = SameDomain::bind(&m, iface, &c, &s).unwrap();
        let storage: Arc<[u8]> = Arc::from(&[3u8; 8][..]);
        let st = Arc::clone(&storage);
        sd.on("read", move |call| {
            call.provide_out("return", &st).unwrap();
            0
        })
        .unwrap();
        let mut frame = sd.new_frame("read").unwrap();
        frame[0] = Value::U32(8);
        frame[1] = Value::Bytes(Vec::with_capacity(8));
        sd.call("read", &mut frame).unwrap();
        assert_eq!(frame[1].as_bytes().unwrap(), &[3; 8]);
        let (copies, bytes, _) = sd.stats().snapshot();
        assert_eq!((copies, bytes), (1, 8), "someone must copy; the stub does");
    }

    #[test]
    fn out_default_donates_fresh_buffer() {
        let (m, c, s) = presentations(vec![], vec![]);
        let iface = m.interface("FileIO").unwrap();
        let mut sd = SameDomain::bind(&m, iface, &c, &s).unwrap();
        sd.on("read", |call| {
            call.out_fill("return", |b| b.extend_from_slice(b"fresh")).unwrap();
            0
        })
        .unwrap();
        let mut frame = sd.new_frame("read").unwrap();
        frame[0] = Value::U32(5);
        sd.call("read", &mut frame).unwrap();
        assert_eq!(frame[1].as_bytes().unwrap(), b"fresh");
        let (copies, _, allocs) = sd.stats().snapshot();
        assert_eq!((copies, allocs), (0, 1), "donation allocates, never copies");
    }

    #[test]
    fn status_propagates() {
        let (m, c, s) = presentations(vec![], vec![]);
        let iface = m.interface("FileIO").unwrap();
        let mut sd = SameDomain::bind(&m, iface, &c, &s).unwrap();
        sd.on("write", |_| 13).unwrap();
        let mut frame = sd.new_frame("write").unwrap();
        frame[0] = Value::Bytes(vec![1]);
        assert_eq!(sd.call("write", &mut frame).unwrap(), 13);
    }

    #[test]
    fn unknown_op_reported() {
        let (m, c, s) = presentations(vec![], vec![]);
        let iface = m.interface("FileIO").unwrap();
        let mut sd = SameDomain::bind(&m, iface, &c, &s).unwrap();
        assert!(matches!(sd.on("seek", |_| 0), Err(RpcError::NoSuchOp(_))));
        let mut frame = vec![];
        assert!(matches!(sd.call("seek", &mut frame), Err(RpcError::NoSuchOp(_))));
    }
}
