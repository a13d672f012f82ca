//! Whole-system integration: text in, bytes across simulated boundaries,
//! values out — spanning every crate through the facade.

use flexrpc::core::annot::apply_pdl;
use flexrpc::core::present::{InterfacePresentation, Trust};
use flexrpc::core::program::CompiledInterface;
use flexrpc::core::value::Value;
use flexrpc::kernel::{Kernel, NameMode};
use flexrpc::marshal::WireFormat;
use flexrpc::net::SimNet;
use flexrpc::nfs::client::{ClientVariant, NfsClientHarness};
use flexrpc::nfs::server::{serve_nfs, test_file};
use flexrpc::pipes::fbuf::{FbufMode, FbufPipeHarness};
use flexrpc::pipes::ipc::PipeIpcHarness;
use flexrpc::pipes::server::ReadPresentation;
use flexrpc::runtime::samedomain::SdSnapshot;
use flexrpc::runtime::transport::{connect_kernel, serve_on_kernel};
use flexrpc::runtime::{ClientStub, ServerInterface};
use parking_lot::Mutex;
use std::sync::Arc;

/// The KeyValue interface, parsed from IDL text, with its default
/// presentation and the server's: values kept in the server's own storage
/// (Figure-5 style PDL), so `get` is a sink-mode operation.
fn key_value() -> (flexrpc::core::ir::Module, InterfacePresentation, InterfacePresentation) {
    let module = flexrpc::idl::corba::parse(
        "kv",
        r#"
        interface KeyValue {
            sequence<octet> get(in string key);
            void put(in string key, in sequence<octet> value);
        };
        "#,
    )
    .expect("IDL parses");
    let iface = module.interface("KeyValue").expect("declared");
    let base = InterfacePresentation::default_for(&module, iface).expect("defaults");
    let server_pdl =
        flexrpc::idl::pdl::parse("sequence<octet> [dealloc(never)] KeyValue_get(string key);")
            .expect("PDL parses");
    let server_pres = apply_pdl(&module, iface, &base, &server_pdl).expect("applies");
    (module, base, server_pres)
}

/// KeyValue's work functions: `get` writes the stored value through the
/// reply sink.
fn register_key_value(srv: &mut ServerInterface) {
    let store: Arc<Mutex<std::collections::HashMap<String, Vec<u8>>>> = Arc::default();
    let st = Arc::clone(&store);
    srv.on("put", move |call| {
        let key = call.str("key").expect("key").to_owned();
        let value = call.bytes("value").expect("value").to_vec();
        st.lock().insert(key, value);
        0
    })
    .expect("registers");
    let st = Arc::clone(&store);
    srv.on("get", move |call| {
        let key = call.str("key").expect("key");
        match st.lock().get(key) {
            Some(v) => {
                call.sink.put(v).expect("sink");
                0
            }
            None => 2, // ENOENT-ish.
        }
    })
    .expect("registers");
}

/// The complete pipeline from IDL/PDL *text* to an RPC over the kernel:
/// parse → default presentation → annotate → compile → serve → bind → call.
#[test]
fn text_to_rpc_full_pipeline() {
    let (module, base, server_pres) = key_value();
    let iface = module.interface("KeyValue").expect("declared");
    let server_compiled =
        CompiledInterface::compile(&module, iface, &server_pres).expect("compiles");
    let mut srv = ServerInterface::new(server_compiled, WireFormat::Cdr);
    register_key_value(&mut srv);

    // Serve on a kernel port; bind a default-presentation client.
    let kernel = Kernel::new();
    let ct = kernel.create_task("client", 4096).expect("task");
    let st_task = kernel.create_task("server", 4096).expect("task");
    let server = Arc::new(Mutex::new(srv));
    let port =
        serve_on_kernel(&kernel, st_task, Arc::clone(&server), Trust::None, NameMode::Unique)
            .expect("serves");
    let send = kernel.extract_send_right(st_task, port, ct).expect("right");

    let client_compiled = CompiledInterface::compile(&module, iface, &base).expect("compiles");
    let transport = connect_kernel(
        &kernel,
        ct,
        send,
        client_compiled.signature.hash(),
        Trust::Leaky,
        NameMode::Unique,
    )
    .expect("binds");
    let mut client = ClientStub::new(client_compiled, WireFormat::Cdr, Box::new(transport));

    let mut frame = client.new_frame("put").expect("frame");
    frame[0] = Value::Str("flexible".into());
    frame[1] = Value::Bytes(b"presentation".to_vec());
    client.call("put", &mut frame).expect("put");

    let mut frame = client.new_frame("get").expect("frame");
    frame[0] = Value::Str("flexible".into());
    client.call("get", &mut frame).expect("get");
    assert_eq!(frame[1].as_bytes().expect("bytes"), b"presentation");

    // A missing key surfaces through the exception path (CORBA default).
    let mut frame = client.new_frame("get").expect("frame");
    frame[0] = Value::Str("missing".into());
    assert!(matches!(client.call("get", &mut frame), Err(flexrpc::runtime::RpcError::Remote(2))));
}

/// The same registration serves a direct caller: the sink-mode `get` the
/// kernel-IPC client above reaches through marshalled bytes writes, on a
/// same-domain call, straight into a buffer donated to the caller.
#[test]
fn key_value_sink_get_served_direct() {
    use flexrpc::runtime::samedomain::SameDomain;
    let (module, base, server_pres) = key_value();
    let iface = module.interface("KeyValue").expect("declared");
    let mut sd =
        SameDomain::bind(&module, iface, &base, &server_pres, register_key_value).expect("binds");
    let compiled = CompiledInterface::compile(&module, iface, &base).expect("compiles");
    let (get, put) =
        (compiled.op_index("get").expect("get"), compiled.op_index("put").expect("put"));

    let mut frame = compiled.ops[put].slots.new_frame();
    frame[0] = Value::Str("flexible".into());
    frame[1] = Value::Bytes(b"presentation".to_vec());
    assert_eq!(sd.call_index(put, &mut frame).expect("put"), 0);
    // Neither side relaxed `value`'s semantics: the stub's protective copy.
    assert_eq!(
        sd.stats().snapshot(),
        SdSnapshot { stub_copies: 1, bytes_copied: 12, stub_allocs: 0 }
    );

    let mut frame = compiled.ops[get].slots.new_frame();
    frame[0] = Value::Str("flexible".into());
    assert_eq!(sd.call_index(get, &mut frame).expect("get"), 0);
    assert_eq!(frame[1].as_bytes().expect("bytes"), b"presentation");
    // The sink's one copy, into one donated buffer.
    assert_eq!(
        sd.stats().snapshot(),
        SdSnapshot { stub_copies: 2, bytes_copied: 24, stub_allocs: 1 }
    );

    // The same frame again: a skipped sink payload comes back empty, as it
    // does over the wire, not as the last call left it.
    frame[0] = Value::Str("missing".into());
    assert_eq!(sd.call_index(get, &mut frame).expect("get"), 2);
    assert_eq!(frame[1], Value::Bytes(vec![]));
}

/// The figure-6 pipeline preserves the byte stream and its copy schedule.
#[test]
fn pipe_over_ipc_end_to_end() {
    for mode in [
        ReadPresentation::Default,
        ReadPresentation::DeallocNever,
        ReadPresentation::DeallocNeverWrapOptimized,
    ] {
        let mut h = PipeIpcHarness::new(4096, mode);
        let (w, r) = h.transfer(128 * 1024, 2048).expect("transfer");
        assert!(w >= 64 && r >= 64, "{mode:?}");
    }
}

/// The figure-7 pipeline: fbuf transport in both presentations.
#[test]
fn pipe_over_fbufs_end_to_end() {
    for mode in [FbufMode::Standard, FbufMode::Special] {
        let mut h = FbufPipeHarness::new(8192, 4096, mode);
        h.transfer(128 * 1024, 4096);
    }
}

/// The figure-2 pipeline: all four NFS stub variants read the same bytes
/// over the simulated Ethernet.
#[test]
fn nfs_over_simnet_end_to_end() {
    let file_len = 128 * 1024;
    let net = SimNet::new();
    let ch = net.add_host("client");
    let sh = net.add_host("server");
    let store = serve_nfs(&net, sh);
    let fh = store.lock().add_file(test_file(file_len, 3));
    let mut h = NfsClientHarness::new(Arc::clone(&net), ch, sh, fh, file_len);
    for v in ClientVariant::ALL {
        h.read_file(v, file_len, 8192).expect("read");
        assert_eq!(h.user_buffer(), test_file(file_len, 3), "{v:?}");
    }
}

/// Cross-crate negative path: a client compiled against a *different*
/// interface is refused at bind time by the signature check.
#[test]
fn contract_mismatch_refused_across_the_stack() {
    let module = flexrpc::pipes::fileio_module();
    let iface = module.interface("FileIO").expect("FileIO");
    let pres = InterfacePresentation::default_for(&module, iface).expect("defaults");
    let compiled = CompiledInterface::compile(&module, iface, &pres).expect("compiles");

    let kernel = Kernel::new();
    let ct = kernel.create_task("client", 4096).expect("task");
    let st = kernel.create_task("server", 4096).expect("task");
    let server = Arc::new(Mutex::new(ServerInterface::new(compiled.clone(), WireFormat::Cdr)));
    let port = serve_on_kernel(&kernel, st, server, Trust::None, NameMode::Unique).expect("serves");
    let send = kernel.extract_send_right(st, port, ct).expect("right");

    // A different interface's signature — e.g. SysLog's.
    let other = flexrpc::core::ir::syslog_example();
    let other_iface = other.interface("SysLog").expect("SysLog");
    let other_sig =
        flexrpc::core::sig::WireSignature::of_interface(&other, other_iface).expect("signs").hash();
    assert!(connect_kernel(&kernel, ct, send, other_sig, Trust::None, NameMode::Unique).is_err());
    // The right contract binds.
    assert!(connect_kernel(
        &kernel,
        ct,
        send,
        compiled.signature.hash(),
        Trust::None,
        NameMode::Unique
    )
    .is_ok());
}

/// The specialized (fused + presized) call path — the one form a compiled
/// program has — end to end over every transport: loopback, kernel IPC,
/// Sun RPC on the simulated network, and the same-domain binding.
#[test]
fn fused_specialization_end_to_end() {
    use flexrpc::core::ir::fileio_example;
    use flexrpc::net::SimNet as Net;
    use flexrpc::runtime::samedomain::SameDomain;
    use flexrpc::runtime::transport::{serve_on_net, Loopback, SunRpc};

    fn compile_fileio(m: &flexrpc::core::ir::Module) -> CompiledInterface {
        let iface = m.interface("FileIO").expect("FileIO");
        let pres = InterfacePresentation::default_for(m, iface).expect("defaults");
        CompiledInterface::compile(m, iface, &pres).expect("compiles")
    }

    /// The service's one registration, for every transport below.
    fn register(srv: &mut ServerInterface) {
        let stored: Arc<Mutex<Vec<u8>>> = Arc::default();
        let st = Arc::clone(&stored);
        srv.on("write", move |call| {
            *st.lock() = call.bytes("data").expect("data").to_vec();
            0
        })
        .expect("write");
        let st = Arc::clone(&stored);
        srv.on("read", move |call| {
            let n = call.u32("count").expect("count") as usize;
            let data = st.lock();
            let n = n.min(data.len());
            call.set("return", Value::Bytes(data[..n].to_vec())).expect("return");
            0
        })
        .expect("read");
    }

    fn make_server(
        m: &flexrpc::core::ir::Module,
        format: WireFormat,
    ) -> Arc<Mutex<ServerInterface>> {
        let mut srv = ServerInterface::new(compile_fileio(m), format);
        register(&mut srv);
        Arc::new(Mutex::new(srv))
    }

    fn roundtrip(client: &mut ClientStub) -> Vec<u8> {
        let mut frame = client.new_frame("write").expect("frame");
        frame[0] = Value::Bytes(b"specialized but identical".to_vec());
        assert_eq!(client.call("write", &mut frame).expect("write"), 0);
        let mut frame = client.new_frame("read").expect("frame");
        frame[0] = Value::U32(11);
        assert_eq!(client.call("read", &mut frame).expect("read"), 0);
        frame[1].as_bytes().expect("bytes").to_vec()
    }

    let corba = fileio_example();
    let sun = {
        let mut m = fileio_example();
        m.dialect = flexrpc::core::ir::Dialect::Sun;
        m
    };

    // 1. Same-address-space loopback, CDR.
    let mut client = ClientStub::new(
        compile_fileio(&corba),
        WireFormat::Cdr,
        Box::new(Loopback::new(make_server(&corba, WireFormat::Cdr))),
    );
    assert_eq!(roundtrip(&mut client), b"specialized");

    // 2. Kernel IPC, CDR.
    let kernel = Kernel::new();
    let ct = kernel.create_task("client", 1 << 16).expect("task");
    let st = kernel.create_task("server", 1 << 16).expect("task");
    let port = serve_on_kernel(
        &kernel,
        st,
        make_server(&corba, WireFormat::Cdr),
        Trust::None,
        NameMode::Unique,
    )
    .expect("serves");
    let send = kernel.extract_send_right(st, port, ct).expect("right");
    let compiled = compile_fileio(&corba);
    let sig = compiled.signature.hash();
    let transport =
        connect_kernel(&kernel, ct, send, sig, Trust::None, NameMode::Unique).expect("binds");
    let mut client = ClientStub::new(compiled, WireFormat::Cdr, Box::new(transport));
    assert_eq!(roundtrip(&mut client), b"specialized");

    // 3. Sun RPC over the simulated network, XDR.
    let net = Net::new();
    let ch = net.add_host("client");
    let sh = net.add_host("server");
    serve_on_net(&net, sh, make_server(&sun, WireFormat::Xdr), 200001, 1).expect("serves");
    let transport = SunRpc::new(Arc::clone(&net), ch, sh, 200001, 1);
    let mut client = ClientStub::new(compile_fileio(&sun), WireFormat::Xdr, Box::new(transport));
    assert_eq!(roundtrip(&mut client), b"specialized");

    // 4. The same-domain binding runs the same work functions on the
    // caller's frames, with no marshalling at all.
    let iface = corba.interface("FileIO").expect("FileIO");
    let pres = InterfacePresentation::default_for(&corba, iface).expect("defaults");
    let mut sd = SameDomain::bind(&corba, iface, &pres, &pres, register).expect("binds");
    let compiled = compile_fileio(&corba);
    let mut frame = compiled.ops[1].slots.new_frame();
    frame[0] = Value::Bytes(b"specialized but identical".to_vec());
    assert_eq!(sd.call_index(1, &mut frame).expect("write"), 0);
    let mut frame = compiled.ops[0].slots.new_frame();
    frame[0] = Value::U32(11);
    assert_eq!(sd.call_index(0, &mut frame).expect("read"), 0);
    assert_eq!(frame[1].as_bytes().expect("bytes"), b"specialized");
}
