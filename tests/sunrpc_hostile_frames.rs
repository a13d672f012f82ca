//! Cross-crate: a Sun RPC record whose mark declares a body that is not a
//! whole number of XDR words — one, two or three bytes past the last word —
//! is refused with a typed protocol error wherever it lands, never read
//! past its end. Every encoder pads to whole words, so only a hostile peer
//! sends one: a client to either Sun RPC server (`serve_on_net`, the
//! engine's acceptor behind `expose_on_net`), or a server to either client
//! (`SunRpc`, `SunRpcPipeline`).

use flexrpc::core::ir::fileio_example;
use flexrpc::core::present::InterfacePresentation;
use flexrpc::core::program::CompiledInterface;
use flexrpc::engine::{expose_on_net, ClientInfo, Engine, SunRpcPipeline};
use flexrpc::marshal::WireFormat;
use flexrpc::net::sunrpc::{self, AcceptStat, CallHeader};
use flexrpc::net::{NetError, SimNet};
use flexrpc::runtime::transport::{serve_on_net, SunRpc};
use flexrpc::runtime::{RpcError, ServerInterface, Transport};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const PROG: u32 = 200_001;
const VERS: u32 = 1;

/// The refusal both decoders give such a record.
const REFUSAL: NetError = NetError::Malformed("record is not a whole number of XDR words");

/// `frame` with `extra` bytes appended and its record mark saying so.
fn with_odd_tail(mut frame: Vec<u8>, extra: usize) -> Vec<u8> {
    frame.extend(std::iter::repeat_n(0xA5, extra));
    let mark = 0x8000_0000 | (frame.len() - 4) as u32;
    frame[..4].copy_from_slice(&mark.to_be_bytes());
    frame
}

fn compiled() -> (InterfacePresentation, CompiledInterface) {
    let m = fileio_example();
    let iface = m.interface("FileIO").expect("declared");
    let pres = InterfacePresentation::default_for(&m, iface).expect("defaults");
    let compiled = CompiledInterface::compile(&m, iface, &pres).expect("compiles");
    (pres, compiled)
}

/// A client's 44-byte header (null credentials) and then the odd bytes, to
/// `serve_on_net` on one host and to an engine's acceptor on another: both
/// refuse the record with the decoder's typed error, passed through as it
/// is, and no work function runs.
#[test]
fn both_servers_refuse_a_call_that_is_not_whole_words() {
    let (pres, compiled) = compiled();
    let ran = Arc::new(AtomicU64::new(0));
    let count = |srv: &mut ServerInterface, ran: &Arc<AtomicU64>| {
        let ran = Arc::clone(ran);
        srv.on("read", move |_| {
            ran.fetch_add(1, Ordering::SeqCst);
            0
        })
        .expect("registers");
    };
    let net = SimNet::new();
    let client = net.add_host("client");
    let plain = net.add_host("serve_on_net");
    let engine_host = net.add_host("expose_on_net");
    let mut srv = ServerInterface::new(compiled, WireFormat::Xdr);
    count(&mut srv, &ran);
    serve_on_net(&net, plain, Arc::new(Mutex::new(srv)), PROG, VERS).expect("serves");
    let engine = Engine::builder().workers(1).build();
    let counted = Arc::clone(&ran);
    engine
        .register_service(
            "svc",
            fileio_example(),
            "FileIO",
            pres.clone(),
            WireFormat::Xdr,
            move |srv| count(srv, &counted),
        )
        .expect("registers");
    expose_on_net(&engine, &net, engine_host, "svc", PROG, VERS, ClientInfo::of(&pres))
        .expect("exposes");

    let header = sunrpc::encode_call(CallHeader { xid: 9, prog: PROG, vers: VERS, proc: 0 }, &[]);
    assert_eq!(header.len(), 44);
    for extra in 1..=3 {
        let frame = with_odd_tail(header.clone(), extra);
        for server in [plain, engine_host] {
            let mut reply = b"stale".to_vec();
            let result = net.call(client, server, &frame, &mut reply);
            assert_eq!(result, Err(REFUSAL), "{extra}-byte body to {server:?}");
            assert!(reply.is_empty(), "an error leaves no bytes");
        }
    }
    assert_eq!(ran.load(Ordering::SeqCst), 0, "no work function ran");
}

/// A server that answers every call with its reply header and then the
/// odd bytes: both clients report the typed error.
#[test]
fn both_clients_refuse_a_reply_that_is_not_whole_words() {
    let (_, compiled) = compiled();
    let read = &compiled.ops[0];
    for extra in 1..=3 {
        let net = SimNet::new();
        let (client, server) = (net.add_host("client"), net.add_host("hostile"));
        net.register_handler(server, move |call, out| {
            let (hdr, _, _) = sunrpc::decode_call_tagged(call)?;
            *out = with_odd_tail(sunrpc::encode_reply(hdr.xid, AcceptStat::Success, &[]), extra);
            Ok(())
        })
        .expect("registers");

        let mut transport = SunRpc::new(Arc::clone(&net), client, server, PROG, VERS);
        let (mut reply, mut rights) = (Vec::new(), Vec::new());
        let result = transport.call(read, &[0, 0, 0, 4], &[], &mut reply, &mut rights);
        assert_eq!(result, Err(RpcError::Net(REFUSAL)), "{extra}-byte body over SunRpc");
        assert!(reply.is_empty(), "no bytes are left to misread as a reply");

        let mut pipeline = SunRpcPipeline::new(Arc::clone(&net), client, server, PROG, VERS);
        pipeline.submit(0, &[0, 0, 0, 4]);
        assert_eq!(pipeline.flush(), Err(REFUSAL), "{extra}-byte body over SunRpcPipeline");
    }
}
