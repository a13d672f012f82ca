//! Each Sun RPC reply is framed once. `serve_on_net` leaves the reply
//! header's room at the front of the buffer the caller reads, marshals the
//! reply body behind it, and seals the record mark, XID and status into
//! the room in place; a replay copies the cached body there. Two things
//! are held here, for XDR and for CDR (which aligns relative to the
//! message start, so a 28-byte head must not move a field):
//!
//! * **Where:** the payload a work function writes in place is at the very
//!   address the client stub unmarshals it from — no intermediate buffer.
//!   (When the server marshalled into a buffer of its own and a framing
//!   encoder copied the body behind the header, the addresses differed.)
//! * **What:** every frame is byte for byte the one the gather encoder
//!   builds from the body a head-free dispatch marshals — a success, a
//!   replay, each refusal, and CDR bodies whose 8-byte fields sit in fused
//!   blocks at every phase.

use flexrpc_core::annot::{apply_pdl, Attr, OpAnnot, ParamAnnot, PdlFile};
use flexrpc_core::ir::{
    fileio_example, Dialect, Interface, Module, Operation, Param, ParamDir, Type,
};
use flexrpc_core::present::InterfacePresentation;
use flexrpc_core::program::CompiledInterface;
use flexrpc_core::value::Value;
use flexrpc_marshal::WireFormat;
use flexrpc_net::sunrpc::{self, AcceptStat, CallHeader};
use flexrpc_net::{HostId, Link, SimNet};
use flexrpc_runtime::transport::{serve_on_net, SunRpc};
use flexrpc_runtime::wire::AnyWriter;
use flexrpc_runtime::{ClientStub, ReplyCache, ServerInterface, SpecialMarshal};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const PROG: u32 = 600_052;
const VERS: u32 = 1;
const FORMATS: [WireFormat; 2] = [WireFormat::Xdr, WireFormat::Cdr];

/// `module`'s only interface compiled under its defaults, with `attr` on
/// the result of `op` when one is given.
fn compile(module: &Module, annotate: Option<(&str, Attr)>) -> Arc<CompiledInterface> {
    let iface = &module.interfaces[0];
    let mut pres = InterfacePresentation::default_for(module, iface).expect("defaults");
    if let Some((op, attr)) = annotate {
        let ret = ParamAnnot { param: "return".into(), attrs: vec![attr] };
        let ops = vec![OpAnnot { op: op.into(), op_attrs: vec![], params: vec![ret] }];
        pres = apply_pdl(module, iface, &pres, &PdlFile { ops, ..PdlFile::default() })
            .expect("annotates");
    }
    Arc::new(CompiledInterface::compile(module, iface, &pres).expect("compiles"))
}

/// The payload a server fills in place on one side, and the payload a
/// client's `[special]` routine is handed on the other: their addresses.
#[derive(Default)]
struct Seen {
    written: AtomicUsize,
    read: AtomicUsize,
}

struct Capture(Arc<Seen>);

impl SpecialMarshal for Capture {
    fn get(&self, _slots: &mut [Value], payload: &[u8]) {
        self.0.read.store(payload.as_ptr() as usize, Ordering::SeqCst);
    }
}

#[test]
fn the_reply_body_the_client_unmarshals_is_where_the_server_wrote_it() {
    let m = fileio_example();
    for format in FORMATS {
        let seen = Arc::new(Seen::default());
        let net = SimNet::new();
        let (client, server) = (net.add_host("client"), net.add_host("server"));

        // The server's `read` result is a sink payload, filled in place.
        let mut srv =
            ServerInterface::new_shared(compile(&m, Some(("read", Attr::DeallocNever))), format);
        let wrote = Arc::clone(&seen);
        srv.on("read", move |call| {
            let count = call.u32("count").expect("count") as usize;
            let fill = |dst: &mut [u8]| {
                wrote.written.store(dst.as_ptr() as usize, Ordering::SeqCst);
                dst.fill(0xC5);
            };
            call.sink.put_in_place(count, fill).expect("fills in place");
            0
        })
        .expect("registers");
        serve_on_net(&net, server, Arc::new(Mutex::new(srv)), PROG, VERS).expect("serves");

        // The client hands its `read` result to a `[special]` routine,
        // which sees the payload where the stub unmarshals it.
        let transport = SunRpc::new(Arc::clone(&net), client, server, PROG, VERS);
        let compiled = compile(&m, Some(("read", Attr::Special)));
        let mut stub = ClientStub::new_shared(compiled, format, Box::new(transport));
        stub.hooks_mut("read").expect("read").set(usize::MAX, Arc::new(Capture(Arc::clone(&seen))));
        let mut frame = stub.new_frame("read").expect("frame");
        for (call, count) in [1024u32, 1021, 7, 1024, 512, 1536, 3].into_iter().enumerate() {
            frame[0] = Value::U32(count);
            assert_eq!(stub.call("read", &mut frame).expect("call"), 0);
            assert_eq!(frame[1], Value::U32(count), "{format:?}: the routine saw the payload");
            // The first call grows the caller's buffer after the payload is
            // written; from then on the buffer is warm.
            if call > 0 {
                let (written, read) =
                    (seen.written.load(Ordering::SeqCst), seen.read.load(Ordering::SeqCst));
                assert_eq!(
                    written, read,
                    "{format:?} read({count}): the server wrote the payload at {written:#x}, \
                     the client unmarshalled it at {read:#x}"
                );
            }
        }
    }
}

/// One `serve_on_net` server and, beside it, its twin: the same
/// compilation and work functions dispatched with no head, whose body the
/// gather encoder frames — the expected frame.
struct Framed {
    link: Link,
    twin: ServerInterface,
    cache: Arc<ReplyCache>,
}

impl Framed {
    fn new(
        compiled: &Arc<CompiledInterface>,
        format: WireFormat,
        register: impl Fn(&mut ServerInterface),
    ) -> Framed {
        let net = SimNet::new();
        let (client, server): (HostId, HostId) = (net.add_host("client"), net.add_host("server"));
        let cache = ReplyCache::new(Arc::clone(net.clock()), std::time::Duration::from_secs(1));
        let mut srv = ServerInterface::new_shared(Arc::clone(compiled), format);
        srv.set_reply_cache(Arc::clone(&cache));
        register(&mut srv);
        serve_on_net(&net, server, Arc::new(Mutex::new(srv)), PROG, VERS).expect("serves");
        let mut twin = ServerInterface::new_shared(Arc::clone(compiled), format);
        register(&mut twin);
        Framed { link: net.link(client, server), twin, cache }
    }

    /// The frame the server answers call `xid` to procedure `proc` with.
    fn frame(&mut self, hdr: CallHeader, tag: Option<u64>, args: &[u8]) -> Vec<u8> {
        let call = sunrpc::encode_call_tagged(hdr, tag.map(|seq| (9, seq, 0)), &[args]);
        let mut reply = Vec::new();
        self.link.call(&call, &mut reply).expect("answers");
        reply
    }

    /// The gather encoder's frame of the twin's reply to `args`.
    fn expected(&mut self, xid: u32, op: usize, args: &[u8]) -> Vec<u8> {
        let (mut body, mut rights) = (Vec::new(), Vec::new());
        self.twin.dispatch(op, args, &[], &mut body, &mut rights).expect("twin dispatches");
        sunrpc::encode_reply(xid, AcceptStat::Success, &body)
    }
}

fn call_hdr(xid: u32, proc: u32) -> CallHeader {
    CallHeader { xid, prog: PROG, vers: VERS, proc }
}

fn request(format: WireFormat, a: u32) -> Vec<u8> {
    let mut w = AnyWriter::new(format);
    w.put_u32(a);
    w.into_bytes()
}

#[test]
fn a_success_a_replay_and_a_refusal_are_framed_as_the_gather_encoder_frames_them() {
    let compiled = compile(&fileio_example(), None);
    for format in FORMATS {
        let mut framed = Framed::new(&compiled, format, |srv| {
            srv.on("read", |call| {
                let count = call.u32("count").expect("count") as usize;
                call.set("return", Value::Bytes((0..count).map(|i| i as u8).collect()))
                    .expect("return");
                0
            })
            .expect("registers");
        });
        let mut xid = 0;
        // Every pad length, and the benchmark's sizes.
        for count in (0..=9).chain([512, 1024, 1535, 1536]) {
            xid += 1;
            let args = request(format, count);
            let got = framed.frame(call_hdr(xid, 0), None, &args);
            assert_eq!(got, framed.expected(xid, 0, &args), "{format:?} read({count})");
        }

        // A tagged call executes and records; its retransmission, under a
        // new XID, replays the recorded body behind a fresh header.
        let args = request(format, 13);
        for (xid, executed) in [(100, 1), (101, 1)] {
            let got = framed.frame(call_hdr(xid, 0), Some(77), &args);
            assert_eq!(got, framed.expected(xid, 0, &args), "{format:?} tagged xid {xid}");
            assert_eq!(framed.cache.stats().executions, executed);
        }
        assert_eq!(framed.cache.stats().suppressions, 1, "the second was a replay");

        // Refusals: undecodable arguments after dispatch, and the three a
        // call is refused with before it.
        let refused = [
            (call_hdr(200, 0), Vec::new(), AcceptStat::GarbageArgs),
            (call_hdr(201, 7), args.clone(), AcceptStat::ProcUnavail),
            (
                CallHeader { prog: PROG + 1, ..call_hdr(202, 0) },
                args.clone(),
                AcceptStat::ProgUnavail,
            ),
        ];
        for (hdr, args, stat) in refused {
            let got = framed.frame(hdr, None, &args);
            assert_eq!(got, sunrpc::encode_reply(hdr.xid, stat, &[]), "{format:?} {stat:?}");
        }
    }
}

/// `probe(a) -> u64` with a variable payload, then 8-byte, 4-byte and
/// 1-byte outs: a CDR reply puts the scalars after the payload in one
/// fused block, whose layout depends on the phase the payload left.
fn probe_module() -> Module {
    let op = Operation::new(
        "probe",
        vec![
            Param::new("a", ParamDir::In, Type::U32),
            Param::new("data", ParamDir::Out, Type::octet_seq()),
            Param::new("b", ParamDir::Out, Type::U64),
            Param::new("c", ParamDir::Out, Type::U32),
            Param::new("d", ParamDir::Out, Type::I64),
            Param::new("e", ParamDir::Out, Type::Bool),
        ],
        Type::U64,
    );
    let mut m = Module::new("probe", Dialect::Corba);
    m.interfaces.push(Interface::new("Probe", vec![op]));
    m
}

#[test]
fn cdr_and_xdr_bodies_with_aligned_fields_and_fused_blocks_are_framed_unchanged() {
    let compiled = compile(&probe_module(), None);
    let reply = &compiled.op("probe").expect("probe").reply_marshal.fused;
    assert!(!reply.blocks.is_empty(), "the reply's scalars are fused");
    for format in FORMATS {
        let mut framed = Framed::new(&compiled, format, |srv| {
            srv.on("probe", |call| {
                let a = call.u32("a").expect("a");
                call.set("data", Value::Bytes(vec![0xD0; a as usize])).expect("data");
                call.set("b", Value::U64(0x0102_0304_0506_0708 + u64::from(a))).expect("b");
                call.set("c", Value::U32(a)).expect("c");
                call.set("d", Value::I64(-(i64::from(a) << 40))).expect("d");
                call.set("e", Value::Bool(a % 2 == 1)).expect("e");
                call.set("return", Value::U64(u64::MAX - u64::from(a))).expect("return");
                0
            })
            .expect("registers");
        });
        // Payload lengths 0..16 start the fused block at every phase.
        for a in 0..16u32 {
            let args = request(format, a);
            let got = framed.frame(call_hdr(a + 1, 0), None, &args);
            assert_eq!(got, framed.expected(a + 1, 0, &args), "{format:?} probe({a})");
        }
    }
}
