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
//! The binding runs the work functions a service registers on a
//! [`ServerInterface`], the ones every marshalled transport dispatches to,
//! on the caller's own frame. Copies and allocations are counted so tests
//! can assert the schedule and Figure 10/11 benches can report it.

use crate::error::RpcError;
use crate::server::ServerInterface;
use crate::Result;
use flexrpc_core::compat::{in_param_action, out_param_action, InParamAction, OutParamAction};
use flexrpc_core::ir::{Interface, Module, Type};
use flexrpc_core::present::InterfacePresentation;
use flexrpc_core::program::CompiledInterface;
use flexrpc_core::value::Value;
use flexrpc_core::CoreError;
use flexrpc_marshal::WireFormat;
use std::sync::Arc;

flexrpc_trace::instruments! {
    /// Copy/alloc counters for the same-domain path.
    pub struct SdStats {
        /// Buffer copies performed by the binding (the "stub").
        stub_copies: Counter = "samedomain.stub_copy",
        /// Bytes moved by those copies.
        bytes_copied: Counter = "samedomain.bytes_copied",
        /// Buffers the binding allocated on behalf of an endpoint.
        stub_allocs: Counter = "samedomain.stub_alloc",
    }
    /// A point-in-time copy of [`SdStats`].
    #[derive(Eq)]
    pub struct SdSnapshot;
}

impl SdStats {
    fn add_copy(&self, bytes: usize) {
        self.stub_copies.inc();
        self.bytes_copied.add(bytes as u64);
    }
}

/// One operation's negotiated plan: what a direct call's payload accessors
/// carry out, slot by slot.
#[derive(Debug, Default)]
pub(crate) struct OpPlan {
    /// `in` payloads the stub copies before the work function sees them.
    copies: Vec<usize>,
    /// `in` payloads the work function may modify: copied, or `[trashable]`.
    pub(crate) modifiable: Vec<usize>,
    /// `out` payloads and their negotiated actions.
    pub(crate) outs: Vec<(usize, OutParamAction)>,
}

/// Produces an out payload by filling `value`'s buffer: the caller's own when
/// it presented one (no copy, no allocation), a fresh one otherwise — a
/// donation, counted in `stats` when the binding makes it.
pub(crate) fn fill(value: &mut Value, f: impl FnOnce(&mut Vec<u8>), stats: Option<&SdStats>) {
    if !matches!(value, Value::Bytes(b) if b.capacity() > 0) {
        if let Some(stats) = stats {
            stats.stub_allocs.inc();
        }
        *value = Value::Bytes(Vec::new());
    }
    if let Value::Bytes(b) = value {
        b.clear();
        f(b);
    }
}

/// A sink payload on a direct call: the `len` bytes `f` appends, copied
/// once into the caller's buffer or a donated one.
pub(crate) fn put(value: &mut Value, len: usize, f: impl FnOnce(&mut Vec<u8>), stats: &SdStats) {
    fill(value, f, Some(stats));
    stats.add_copy(len);
}

/// Provides out payload `slot` from server-owned storage. Donated, the
/// storage is *lent* by refcounted view — zero copies, zero allocations;
/// into a buffer the client insists on, the stub makes the one unavoidable
/// copy, counted in `stats` when the binding makes it.
pub(crate) fn lend(
    (slot, value): (usize, &mut Value),
    action: OutParamAction,
    data: &Arc<[u8]>,
    stats: Option<&SdStats>,
) -> Result<()> {
    match (action, value) {
        (OutParamAction::Donate, v) => *v = Value::Shared(Arc::clone(data)),
        (_, Value::Bytes(b)) => {
            b.clear();
            b.extend_from_slice(data);
            stats.inspect(|s| s.add_copy(data.len()));
        }
        (_, other) => {
            return Err(RpcError::SlotKind { slot, expected: "bytes", found: other.kind() })
        }
    }
    Ok(())
}

/// A bound same-domain connection: a service's registered work functions
/// and, per operation, the plan negotiated from the two presentations.
pub struct SameDomain {
    server: ServerInterface,
    plans: Vec<OpPlan>,
    stats: SdStats,
    /// Scratch reused so steady-state calls allocate no bookkeeping: the
    /// client's originals set aside during protective copies, and its sink
    /// slots while the work function produces them.
    saved: Vec<(usize, Value)>,
    staged: Vec<Value>,
}

impl SameDomain {
    /// Binds a client presentation to a server presentation of `iface`,
    /// negotiating every payload parameter's invocation semantics, and
    /// registers the service's work functions with `register` — the shape
    /// an engine's replica factory has, so one registration serves both.
    ///
    /// A presentation that does not cover `iface`, or two whose frames are
    /// laid out differently (a direct call hands the server's work functions
    /// the client's frame), is refused.
    pub fn bind(
        module: &Module,
        iface: &Interface,
        client: &InterfacePresentation,
        server: &InterfacePresentation,
        register: impl Fn(&mut ServerInterface),
    ) -> Result<SameDomain> {
        let compiled = CompiledInterface::compile(module, iface, server)?;
        let client_ops = CompiledInterface::compile(module, iface, client)?.ops;
        let mut plans = Vec::with_capacity(iface.ops.len());
        for ((op, cop), sop) in iface.ops.iter().zip(&client_ops).zip(&compiled.ops) {
            if cop.slots != sop.slots {
                let why = format!("`{}`: the presentations lay out different frames", op.name);
                return Err(CoreError::ContractViolation(why).into());
            }
            let uncovered = || RpcError::NoSuchOp(op.name.clone());
            let cpres = client.op(&op.name).ok_or_else(uncovered)?;
            let spres = server.op(&op.name).ok_or_else(uncovered)?;
            let slot = |name: &str| sop.slots.slot(name).expect("payload params own a slot").0;
            let mut plan = OpPlan::default();
            for ((p, cp), sp) in op.params.iter().zip(&cpres.params).zip(&spres.params) {
                if !module.resolve(&p.ty)?.is_payload() {
                    continue;
                }
                if p.dir.is_in() {
                    let copy = in_param_action(cp, sp) == InParamAction::CopyInStub;
                    if copy {
                        plan.copies.push(slot(&p.name));
                    }
                    if copy || cp.trashable {
                        plan.modifiable.push(slot(&p.name));
                    }
                }
                if p.dir.is_out() {
                    plan.outs.push((slot(&p.name), out_param_action(cp, sp)));
                }
            }
            if op.ret != Type::Void && module.resolve(&op.ret)?.is_payload() {
                plan.outs.push((slot("return"), out_param_action(&cpres.result, &spres.result)));
            }
            plans.push(plan);
        }
        // No message is ever marshalled: the format is never consulted.
        let mut srv = ServerInterface::new(compiled, WireFormat::Cdr);
        register(&mut srv);
        let stats = SdStats::default();
        Ok(SameDomain { server: srv, plans, stats, saved: Vec::new(), staged: Vec::new() })
    }

    /// Copy/alloc counters.
    pub fn stats(&self) -> &SdStats {
        &self.stats
    }

    /// Invokes operation `idx` on the caller's `frame`: applies the in-plan,
    /// runs the registered work function, and returns its status word.
    pub fn call_index(&mut self, idx: usize, frame: &mut [Value]) -> Result<u32> {
        let plan = self.plans.get(idx).ok_or(RpcError::NoOpIndex(idx))?;

        // In-plan: copy in the stub where negotiation demanded it, keeping
        // the client's original aside for restoration.
        let mut saved = std::mem::take(&mut self.saved);
        for &slot in &plan.copies {
            if let Value::Bytes(b) = &frame[slot] {
                let copy = b.clone(); // The stub's protective copy.
                self.stats.add_copy(copy.len());
                saved.push((slot, std::mem::replace(&mut frame[slot], Value::Bytes(copy))));
            }
        }

        let status = self.server.call_direct(idx, frame, plan, &self.stats, &mut self.staged);

        // Restore the client's originals over the stub's scratch copies.
        for (slot, original) in saved.drain(..) {
            frame[slot] = original;
        }
        self.saved = saved;
        status
    }
}

impl std::fmt::Debug for SameDomain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SameDomain({} ops)", self.plans.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexrpc_core::annot::{apply_pdl, Attr, OpAnnot, ParamAnnot, PdlFile};
    use flexrpc_core::ir::{fileio_example, syslog_example};

    const READ: usize = 0;
    const WRITE: usize = 1;

    /// A FileIO binding of two annotated default presentations, and a
    /// fresh frame for one call of operation `op`.
    fn bind(
        client_attrs: Vec<(&str, &str, Vec<Attr>)>,
        server_attrs: Vec<(&str, &str, Vec<Attr>)>,
        op: usize,
        register: impl Fn(&mut ServerInterface),
    ) -> (SameDomain, Vec<Value>) {
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
        let (c, s) = (apply(client_attrs), apply(server_attrs));
        let frame = CompiledInterface::compile(&m, iface, &c).unwrap().ops[op].slots.new_frame();
        (SameDomain::bind(&m, iface, &c, &s, register).unwrap(), frame)
    }

    #[test]
    fn default_in_param_copies_once() {
        let (mut sd, mut frame) = bind(vec![], vec![], WRITE, |srv| {
            srv.on("write", |call| {
                // The server may modify: the stub made it a private copy.
                call.bytes_mut("data").unwrap()[0] = 0xFF;
                0
            })
            .unwrap()
        });
        frame[0] = Value::Bytes(vec![1, 2, 3]);
        sd.call_index(WRITE, &mut frame).unwrap();
        let SdSnapshot { stub_copies: copies, bytes_copied: bytes, .. } = sd.stats().snapshot();
        assert_eq!((copies, bytes), (1, 3));
        // The client's buffer survived the server's trashing.
        assert_eq!(frame[0], Value::Bytes(vec![1, 2, 3]));
    }

    #[test]
    fn trashable_skips_the_copy_and_trashes() {
        let client = vec![("write", "data", vec![Attr::Trashable])];
        let (mut sd, mut frame) = bind(client, vec![], WRITE, |srv| {
            srv.on("write", |call| {
                call.bytes_mut("data").unwrap()[0] = 0xFF;
                0
            })
            .unwrap()
        });
        frame[0] = Value::Bytes(vec![1, 2, 3]);
        sd.call_index(WRITE, &mut frame).unwrap();
        assert_eq!(sd.stats().snapshot().stub_copies, 0, "no stub copy");
        assert_eq!(frame[0], Value::Bytes(vec![0xFF, 2, 3]), "client buffer trashed, as allowed");
    }

    #[test]
    fn preserved_server_refused_mutation() {
        let server = vec![("write", "data", vec![Attr::Preserved])];
        let (mut sd, mut frame) = bind(vec![], server, WRITE, |srv| {
            srv.on("write", |call| {
                assert!(call.bytes_mut("data").is_err(), "promise enforced");
                assert_eq!(call.bytes("data").unwrap(), &[9, 9]);
                0
            })
            .unwrap()
        });
        frame[0] = Value::Bytes(vec![9, 9]);
        sd.call_index(WRITE, &mut frame).unwrap();
        assert_eq!(sd.stats().snapshot().stub_copies, 0, "borrow semantics: no copy");
    }

    #[test]
    fn out_direct_fill_into_caller_buffer() {
        let client = vec![("read", "return", vec![Attr::AllocCaller])];
        let (mut sd, mut frame) = bind(client, vec![], READ, |srv| {
            srv.on("read", |call| {
                let n = call.u32("count").unwrap() as usize;
                call.out_fill("return", |b| b.extend(std::iter::repeat_n(7u8, n))).unwrap();
                0
            })
            .unwrap()
        });
        frame[0] = Value::U32(4);
        frame[1] = Value::Bytes(Vec::with_capacity(16)); // Caller's buffer.
        let ptr = frame[1].as_bytes().unwrap().as_ptr();
        sd.call_index(READ, &mut frame).unwrap();
        assert_eq!(frame[1].as_bytes().unwrap(), &[7, 7, 7, 7]);
        assert_eq!(frame[1].as_bytes().unwrap().as_ptr(), ptr, "filled in place");
        let SdSnapshot { stub_copies: copies, stub_allocs: allocs, .. } = sd.stats().snapshot();
        assert_eq!((copies, allocs), (0, 0));
    }

    /// Registers a `read` that provides `storage` from server-owned memory.
    fn provides(storage: Arc<[u8]>) -> impl Fn(&mut ServerInterface) {
        move |srv| {
            let st = Arc::clone(&storage);
            srv.on("read", move |call| {
                call.provide_out("return", &st).unwrap();
                0
            })
            .unwrap()
        }
    }

    #[test]
    fn out_donate_lends_server_storage_zero_copy() {
        let server = vec![("read", "return", vec![Attr::DeallocNever])];
        let storage: Arc<[u8]> = Arc::from(&b"server-owned"[..]);
        let (mut sd, mut frame) = bind(vec![], server, READ, provides(storage));
        frame[0] = Value::U32(12);
        sd.call_index(READ, &mut frame).unwrap();
        assert_eq!(frame[1].window_of(&[]).unwrap(), b"server-owned");
        let SdSnapshot { stub_copies: copies, stub_allocs: allocs, .. } = sd.stats().snapshot();
        assert_eq!((copies, allocs), (0, 0), "lent by refcounted view");
        assert!(matches!(frame[1], Value::Shared(_)));
    }

    #[test]
    fn out_mismatch_copies_once_in_stub() {
        // Client insists on its buffer, server insists on its storage.
        let client = vec![("read", "return", vec![Attr::AllocCaller])];
        let server = vec![("read", "return", vec![Attr::DeallocNever])];
        let (mut sd, mut frame) = bind(client, server, READ, provides(Arc::from(&[3u8; 8][..])));
        frame[0] = Value::U32(8);
        frame[1] = Value::Bytes(Vec::with_capacity(8));
        sd.call_index(READ, &mut frame).unwrap();
        assert_eq!(frame[1].as_bytes().unwrap(), &[3; 8]);
        let SdSnapshot { stub_copies: copies, bytes_copied: bytes, .. } = sd.stats().snapshot();
        assert_eq!((copies, bytes), (1, 8), "someone must copy; the stub does");
    }

    #[test]
    fn out_default_donates_fresh_buffer() {
        let (mut sd, mut frame) = bind(vec![], vec![], READ, |srv| {
            srv.on("read", |call| {
                call.out_fill("return", |b| b.extend_from_slice(b"fresh")).unwrap();
                0
            })
            .unwrap()
        });
        frame[0] = Value::U32(5);
        frame[1] = Value::Null;
        sd.call_index(READ, &mut frame).unwrap();
        assert_eq!(frame[1].as_bytes().unwrap(), b"fresh");
        let SdSnapshot { stub_copies: copies, stub_allocs: allocs, .. } = sd.stats().snapshot();
        assert_eq!((copies, allocs), (0, 1), "donation allocates, never copies");
    }

    #[test]
    fn sink_mode_work_function_serves_a_direct_caller() {
        // The server's presentation makes `return` a sink payload; its work
        // function writes through the sink, and a direct caller gets the
        // bytes in its own buffer, or a donated one, with the sink's copy.
        let server = vec![("read", "return", vec![Attr::DeallocNever])];
        let register = |srv: &mut ServerInterface| {
            srv.on("read", |call| {
                assert_eq!(call.sink.expected(), 1);
                call.sink.put(b"sunk").unwrap();
                assert!(call.sink.put(b"again").is_err(), "one sink payload");
                0
            })
            .unwrap()
        };
        let (mut sd, mut frame) = bind(vec![], server.clone(), READ, register);
        frame[0] = Value::U32(4);
        assert_eq!(sd.call_index(READ, &mut frame).unwrap(), 0);
        assert_eq!(frame[1].as_bytes().unwrap(), b"sunk");
        assert_eq!(
            sd.stats().snapshot(),
            SdSnapshot { stub_copies: 1, bytes_copied: 4, stub_allocs: 1 }
        );

        let client = vec![("read", "return", vec![Attr::AllocCaller])];
        let (mut sd, mut frame) = bind(client, server, READ, register);
        frame[1] = Value::Bytes(Vec::with_capacity(8));
        let ptr = frame[1].as_bytes().unwrap().as_ptr();
        sd.call_index(READ, &mut frame).unwrap();
        assert_eq!(frame[1].as_bytes().unwrap(), b"sunk");
        assert_eq!(frame[1].as_bytes().unwrap().as_ptr(), ptr, "into the caller's buffer");
        assert_eq!(
            sd.stats().snapshot(),
            SdSnapshot { stub_copies: 1, bytes_copied: 4, stub_allocs: 0 }
        );
    }

    /// A payload produced in place on a direct call is produced in the
    /// caller's buffer, counted as the sink's one copy.
    #[test]
    fn a_payload_put_in_place_lands_in_the_callers_buffer() {
        let server = vec![("read", "return", vec![Attr::DeallocNever])];
        let client = vec![("read", "return", vec![Attr::AllocCaller])];
        let (mut sd, mut frame) = bind(client, server, READ, |srv| {
            srv.on("read", |call| {
                call.sink.put_in_place(4, |dst| dst.copy_from_slice(b"made")).unwrap();
                0
            })
            .unwrap()
        });
        frame[1] = Value::Bytes(Vec::with_capacity(8));
        let ptr = frame[1].as_bytes().unwrap().as_ptr();
        sd.call_index(READ, &mut frame).unwrap();
        assert_eq!(frame[1].as_bytes().unwrap(), b"made");
        assert_eq!(frame[1].as_bytes().unwrap().as_ptr(), ptr, "into the caller's buffer");
        assert_eq!(
            sd.stats().snapshot(),
            SdSnapshot { stub_copies: 1, bytes_copied: 4, stub_allocs: 0 }
        );
    }

    #[test]
    fn status_propagates() {
        let (mut sd, mut frame) =
            bind(vec![], vec![], WRITE, |srv| srv.on("write", |_| 13).unwrap());
        frame[0] = Value::Bytes(vec![1]);
        assert_eq!(sd.call_index(WRITE, &mut frame).unwrap(), 13);
    }

    #[test]
    fn unknown_op_and_missing_handler_reported() {
        let (mut sd, mut frame) = bind(vec![], vec![], WRITE, |_| {});
        assert_eq!(sd.call_index(WRITE, &mut frame), Err(RpcError::NoHandler(WRITE)));
        assert_eq!(sd.call_index(9, &mut frame), Err(RpcError::NoOpIndex(9)));
    }

    #[test]
    fn a_server_presentation_of_another_interface_is_refused() {
        let m = fileio_example();
        let iface = m.interface("FileIO").unwrap();
        let client = InterfacePresentation::default_for(&m, iface).unwrap();

        // No operation of FileIO in it.
        let other = syslog_example();
        let syslog = InterfacePresentation::default_for(&other, other.interface("SysLog").unwrap());
        let bound = SameDomain::bind(&m, iface, &client, &syslog.unwrap(), |_| {});
        assert!(matches!(bound, Err(RpcError::Core(_))), "{bound:?}");

        // `write` presented with no parameters.
        let mut short = client.clone();
        short.ops.get_mut("write").unwrap().params.clear();
        let bound = SameDomain::bind(&m, iface, &client, &short, |_| {});
        assert!(matches!(bound, Err(RpcError::Core(_))), "{bound:?}");
    }

    #[test]
    fn presentations_laying_out_different_frames_are_refused() {
        // `length_is` presents a string as bytes: a different slot kind.
        let m = syslog_example();
        let iface = m.interface("SysLog").unwrap();
        let client = InterfacePresentation::default_for(&m, iface).unwrap();
        let mut server = client.clone();
        server.ops.get_mut("write_msg").unwrap().params[0].length_is = Some("len".into());
        let bound = SameDomain::bind(&m, iface, &client, &server, |_| {});
        let Err(err) = bound else { panic!("bound across two frame layouts") };
        assert_eq!(err.kind(), crate::ErrorKind::ContractViolation, "{err}");
    }
}
