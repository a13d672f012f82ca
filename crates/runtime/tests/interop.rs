//! End-to-end interoperability: differently presented endpoints, one wire.
//!
//! The paper's core promise is that presentation annotations never affect
//! the network contract, so *any* client presentation interoperates with
//! *any* server presentation of the same interface. These tests drive the
//! full stack — PDL text → annotations → presentations → compiled programs
//! → interpreter → transport — over every transport, and a property test
//! sweeps random presentation pairs.

use flexrpc_core::annot::{apply_pdl, PdlFile};
use flexrpc_core::ir::fileio_example;
use flexrpc_core::ir::Module;
use flexrpc_core::present::InterfacePresentation;
use flexrpc_core::program::CompiledInterface;
use flexrpc_core::value::Value;
use flexrpc_kernel::{Kernel, NameMode};
use flexrpc_marshal::WireFormat;
use flexrpc_net::{NetError, SimNet};
use flexrpc_runtime::transport::{connect_kernel, serve_on_kernel, serve_on_net, Loopback, SunRpc};
use flexrpc_runtime::{ClientStub, ServerInterface};
use parking_lot::Mutex;
use proptest::prelude::*;
use std::sync::Arc;

fn pres_from_pdl(m: &Module, pdl_src: &str) -> InterfacePresentation {
    let iface = m.interface("FileIO").unwrap();
    let base = InterfacePresentation::default_for(m, iface).unwrap();
    if pdl_src.is_empty() {
        return base;
    }
    let pdl: PdlFile = flexrpc_idl::pdl::parse(pdl_src).unwrap();
    apply_pdl(m, iface, &base, &pdl).unwrap()
}

/// An echo-flavored FileIO server: `write` stores, `read` returns the last
/// `count` bytes stored. Configured from a server-side PDL.
fn make_server(m: &Module, pdl: &str, format: WireFormat) -> Arc<Mutex<ServerInterface>> {
    let iface = m.interface("FileIO").unwrap();
    let pres = pres_from_pdl(m, pdl);
    let compiled = CompiledInterface::compile(m, iface, &pres).unwrap();
    let sink_mode = !compiled.op("read").unwrap().sink_params.is_empty();
    let mut srv = ServerInterface::new(compiled, format);
    let stored: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(b"0123456789abcdef".to_vec()));

    let st = Arc::clone(&stored);
    srv.on("write", move |call| {
        let data = call.bytes("data").unwrap().to_vec();
        *st.lock() = data;
        0
    })
    .unwrap();

    let st = Arc::clone(&stored);
    srv.on("read", move |call| {
        let count = call.u32("count").unwrap() as usize;
        let data = st.lock();
        let n = count.min(data.len());
        if sink_mode {
            // dealloc(never)/special presentation: marshal straight out of
            // the server's own storage.
            call.sink.put(&data[..n]).unwrap();
        } else {
            // Default move semantics: return an owned buffer.
            call.set("return", Value::Bytes(data[..n].to_vec())).unwrap();
        }
        0
    })
    .unwrap();
    Arc::new(Mutex::new(srv))
}

fn make_client(
    m: &Module,
    pdl: &str,
    format: WireFormat,
    server: Arc<Mutex<ServerInterface>>,
) -> ClientStub {
    let iface = m.interface("FileIO").unwrap();
    let pres = pres_from_pdl(m, pdl);
    let compiled = CompiledInterface::compile(m, iface, &pres).unwrap();
    ClientStub::new(compiled, format, Box::new(Loopback::new(server)))
}

fn exercise(client: &mut ClientStub, caller_allocates: bool) {
    // write then read back.
    let mut frame = client.new_frame("write").unwrap();
    frame[0] = Value::Bytes(b"presentation is local".to_vec());
    client.call("write", &mut frame).unwrap();

    let mut frame = client.new_frame("read").unwrap();
    frame[0] = Value::U32(12);
    if caller_allocates {
        frame[1] = Value::Bytes(Vec::with_capacity(64));
    }
    client.call("read", &mut frame).unwrap();
    assert_eq!(frame[1].as_bytes().unwrap(), b"presentation");
}

const CLIENT_PDLS: &[(&str, &str, bool)] = &[
    ("default", "", false),
    ("caller-alloc", "sequence<octet> [alloc(caller)] FileIO_read(unsigned long count);", false),
    ("trashable", "void FileIO_write(char *[trashable] data);", false),
];

const SERVER_PDLS: &[(&str, &str)] = &[
    ("default", ""),
    ("dealloc-never", "sequence<octet> [dealloc(never)] FileIO_read(unsigned long count);"),
    ("borrowed-write", "void FileIO_write(char *[borrowed] data);"),
    ("preserved", "void FileIO_write(char *[preserved] data);"),
];

#[test]
fn loopback_presentation_matrix() {
    let m = fileio_example();
    for format in [WireFormat::Cdr, WireFormat::Xdr] {
        for (cname, cpdl, _) in CLIENT_PDLS {
            for (sname, spdl) in SERVER_PDLS {
                let server = make_server(&m, spdl, format);
                let mut client = make_client(&m, cpdl, format, server);
                // `caller-alloc` changes where the read lands.
                let caller_alloc = *cname == "caller-alloc";
                exercise(&mut client, caller_alloc);
                let _ = sname;
            }
        }
    }
}

#[test]
fn caller_alloc_read_fills_in_place() {
    let m = fileio_example();
    let server = make_server(&m, "", WireFormat::Cdr);
    let mut client = make_client(
        &m,
        "sequence<octet> [alloc(caller)] FileIO_read(unsigned long count);",
        WireFormat::Cdr,
        server,
    );
    let mut frame = client.new_frame("read").unwrap();
    frame[0] = Value::U32(4);
    frame[1] = Value::Bytes(Vec::with_capacity(32));
    let ptr = frame[1].as_bytes().unwrap().as_ptr();
    client.call("read", &mut frame).unwrap();
    assert_eq!(frame[1].as_bytes().unwrap(), b"0123");
    assert_eq!(frame[1].as_bytes().unwrap().as_ptr(), ptr, "no client-side allocation");
}

#[test]
fn kernel_ipc_end_to_end_with_signature_check() {
    let m = fileio_example();
    let k = Kernel::new();
    let client_task = k.create_task("client", 4096).unwrap();
    let server_task = k.create_task("server", 4096).unwrap();

    let server = make_server(
        &m,
        "sequence<octet> [dealloc(never)] FileIO_read(unsigned long count);",
        WireFormat::Cdr,
    );
    let sig = server.lock().compiled().signature.hash();
    let port = serve_on_kernel(
        &k,
        server_task,
        Arc::clone(&server),
        flexrpc_core::present::Trust::None,
        NameMode::Unique,
    )
    .unwrap();
    let send = k.extract_send_right(server_task, port, client_task).unwrap();

    // Signature mismatch is refused at bind time.
    let bad = connect_kernel(
        &k,
        client_task,
        send,
        sig ^ 1,
        flexrpc_core::present::Trust::None,
        NameMode::Unique,
    );
    assert!(bad.is_err(), "wrong contract must not bind");

    let transport = connect_kernel(
        &k,
        client_task,
        send,
        sig,
        flexrpc_core::present::Trust::None,
        NameMode::Unique,
    )
    .unwrap();
    let iface = m.interface("FileIO").unwrap();
    let pres = pres_from_pdl(&m, "");
    let compiled = CompiledInterface::compile(&m, iface, &pres).unwrap();
    let mut client = ClientStub::new(compiled, WireFormat::Cdr, Box::new(transport));
    exercise(&mut client, false);
}

#[test]
fn sunrpc_end_to_end_over_simnet() {
    let m = {
        let mut m = fileio_example();
        m.dialect = flexrpc_core::ir::Dialect::Sun;
        m
    };
    let net = SimNet::new();
    let ch = net.add_host("client");
    let sh = net.add_host("server");

    let server = make_server(&m, "", WireFormat::Xdr);
    serve_on_net(&net, sh, Arc::clone(&server), 200001, 1).unwrap();

    let iface = m.interface("FileIO").unwrap();
    let pres = pres_from_pdl(&m, "");
    let compiled = CompiledInterface::compile(&m, iface, &pres).unwrap();
    let transport = SunRpc::new(Arc::clone(&net), ch, sh, 200001, 1);
    let mut client = ClientStub::new(compiled, WireFormat::Xdr, Box::new(transport));

    // Sun dialect default: comm_status — errors come back as status codes.
    let mut frame = client.new_frame("write").unwrap();
    frame[0] = Value::Bytes(b"over the wire".to_vec());
    assert_eq!(client.call("write", &mut frame).unwrap(), 0);

    let mut frame = client.new_frame("read").unwrap();
    frame[0] = Value::U32(8);
    assert_eq!(client.call("read", &mut frame).unwrap(), 0);
    assert_eq!(frame[1].as_bytes().unwrap(), b"over the");

    // The wire clock advanced deterministically.
    assert!(net.wire_ns() > 0);
}

/// A reply is a record too: a reply frame whose mark lacks the
/// last-fragment bit is refused as a typed protocol error — by
/// `decode_reply`, and through the transport, which leaves no bytes behind
/// to be read as a reply.
#[test]
fn sunrpc_refuses_a_fragmented_reply_record() {
    use flexrpc_net::sunrpc::{self, AcceptStat};
    use flexrpc_runtime::policy::CallControl;
    use flexrpc_runtime::transport::Transport;
    use flexrpc_runtime::RpcError;

    let net = SimNet::new();
    let ch = net.add_host("client");
    let sh = net.add_host("server");
    net.register_handler(sh, |msg, out| {
        let (hdr, _, _) = sunrpc::decode_call_tagged(msg)?;
        out.extend_from_slice(&sunrpc::encode_reply(hdr.xid, AcceptStat::Success, &[0; 8]));
        out[0] &= 0x7F; // "More fragments follow."
        Ok(())
    })
    .unwrap();

    let whole = sunrpc::encode_reply(1, AcceptStat::Success, &[0; 8]);
    let mut fragment = whole.clone();
    fragment[0] &= 0x7F;
    assert!(sunrpc::decode_reply(&whole).is_ok());
    let refused = NetError::Malformed("fragmented records not supported");
    assert_eq!(sunrpc::decode_reply(&fragment).unwrap_err(), refused);

    let m = fileio_example();
    let compiled =
        CompiledInterface::compile(&m, m.interface("FileIO").unwrap(), &pres_from_pdl(&m, ""))
            .unwrap();
    let mut transport = SunRpc::new(Arc::clone(&net), ch, sh, 200001, 1);
    let (mut reply, mut rights_out) = (b"stale".to_vec(), Vec::new());
    let err = transport
        .call_with(
            &compiled.ops[0],
            &[0; 4],
            &[],
            &mut reply,
            &mut rights_out,
            &CallControl::none(),
        )
        .unwrap_err();
    assert_eq!(err, RpcError::Net(refused));
    assert!(reply.is_empty(), "no bytes left to misread as a reply");
}

#[test]
fn remote_status_surfaces_per_comm_status_presentation() {
    let m = fileio_example();
    let iface = m.interface("FileIO").unwrap();
    let pres = pres_from_pdl(&m, "");
    let compiled = CompiledInterface::compile(&m, iface, &pres).unwrap();
    let mut srv = ServerInterface::new(compiled.clone(), WireFormat::Cdr);
    srv.on("read", |_| 5).unwrap();
    srv.on("write", |_| 5).unwrap();
    let server = Arc::new(Mutex::new(srv));

    // CORBA default: exception path.
    let mut client =
        ClientStub::new(compiled, WireFormat::Cdr, Box::new(Loopback::new(Arc::clone(&server))));
    let mut frame = client.new_frame("write").unwrap();
    frame[0] = Value::Bytes(vec![1]);
    assert!(matches!(client.call("write", &mut frame), Err(flexrpc_runtime::RpcError::Remote(5))));

    // With [comm_status], the same failure is an ordinary return value.
    let pres = pres_from_pdl(&m, "[comm_status] void FileIO_write(char *data);");
    let compiled = CompiledInterface::compile(&m, iface, &pres).unwrap();
    let mut client = ClientStub::new(compiled, WireFormat::Cdr, Box::new(Loopback::new(server)));
    let mut frame = client.new_frame("write").unwrap();
    frame[0] = Value::Bytes(vec![1]);
    assert_eq!(client.call("write", &mut frame).unwrap(), 5);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random client/server presentation pairs, random payloads, both wire
    /// formats: the read-back must always succeed and match.
    #[test]
    fn any_presentation_pair_interoperates(
        client_idx in 0usize..CLIENT_PDLS.len(),
        server_idx in 0usize..SERVER_PDLS.len(),
        xdr in any::<bool>(),
        payload in prop::collection::vec(any::<u8>(), 1..512),
        count in 1u32..512,
    ) {
        let m = fileio_example();
        let format = if xdr { WireFormat::Xdr } else { WireFormat::Cdr };
        let server = make_server(&m, SERVER_PDLS[server_idx].1, format);
        let mut client = make_client(&m, CLIENT_PDLS[client_idx].1, format, server);

        let mut frame = client.new_frame("write").unwrap();
        frame[0] = Value::Bytes(payload.clone());
        prop_assert_eq!(client.call("write", &mut frame).unwrap(), 0);

        let mut frame = client.new_frame("read").unwrap();
        frame[0] = Value::U32(count);
        if CLIENT_PDLS[client_idx].0 == "caller-alloc" {
            frame[1] = Value::Bytes(Vec::with_capacity(512));
        }
        prop_assert_eq!(client.call("read", &mut frame).unwrap(), 0);
        let expect = &payload[..(count as usize).min(payload.len())];
        prop_assert_eq!(frame[1].as_bytes().unwrap(), expect);
    }
}
