//! Property tests over the same-domain negotiation against the marshalled
//! paths, plus `inout` coverage for the marshalled paths.

use flexrpc_core::annot::{apply_pdl, Attr, OpAnnot, ParamAnnot, PdlFile};
use flexrpc_core::ir::{
    fileio_example, Dialect, Interface, Module, Operation, Param, ParamDir, Type,
};
use flexrpc_core::present::InterfacePresentation;
use flexrpc_core::program::CompiledInterface;
use flexrpc_core::value::Value;
use flexrpc_marshal::WireFormat;
use flexrpc_runtime::samedomain::SameDomain;
use flexrpc_runtime::transport::Loopback;
use flexrpc_runtime::{ClientStub, RpcError, ServerInterface};
use parking_lot::Mutex;
use proptest::prelude::*;
use std::sync::Arc;

/// A FileIO presentation: the default with `attrs` on `op`'s `param`.
fn annotated(base: &InterfacePresentation, attrs: &[(&str, &str, Attr)]) -> InterfacePresentation {
    let m = fileio_example();
    let iface = m.interface("FileIO").unwrap();
    let mut pdl = PdlFile::default();
    for (op, param, attr) in attrs {
        pdl.ops.push(OpAnnot {
            op: (*op).into(),
            op_attrs: vec![],
            params: vec![ParamAnnot { param: (*param).into(), attrs: vec![attr.clone()] }],
        });
    }
    apply_pdl(&m, iface, base, &pdl).unwrap()
}

/// FileIO's one registration, for every path: `write` logs the bytes it
/// sees to `observed`, keeps them, then mutates them wherever it may;
/// `read` returns the first `count` kept bytes — provided from its own
/// storage when `stored`, filled otherwise — with status 7 past the end.
fn register(observed: Arc<Mutex<Vec<u8>>>, stored: bool) -> impl Fn(&mut ServerInterface) {
    move |srv| {
        let kept: Arc<Mutex<Vec<u8>>> = Arc::default();
        let (obs, k) = (Arc::clone(&observed), Arc::clone(&kept));
        srv.on("write", move |call| {
            let data = call.bytes("data").unwrap().to_vec();
            obs.lock().extend_from_slice(&data);
            *k.lock() = data;
            if let Ok(buf) = call.bytes_mut("data") {
                buf.iter_mut().for_each(|b| *b = b.wrapping_add(1));
            }
            0
        })
        .unwrap();
        srv.on("read", move |call| {
            let count = call.u32("count").unwrap() as usize;
            let kept = kept.lock();
            let n = count.min(kept.len());
            if stored {
                call.provide_out("return", &Arc::from(&kept[..n])).unwrap();
            } else {
                call.out_fill("return", |b| b.extend_from_slice(&kept[..n])).unwrap();
            }
            if count > kept.len() {
                7
            } else {
                0
            }
        })
        .unwrap();
    }
}

/// One side of the oracle: a write of `payload`, then a read of `count`.
#[derive(Debug, PartialEq)]
struct Seen {
    /// What `write`'s work function observed.
    observed: Vec<u8>,
    /// The client's `data` buffer after the write.
    client_data: Vec<u8>,
    /// The read's status, and its `out` bytes when it succeeded.
    read: (u32, Option<Vec<u8>>),
}

/// Runs the two calls through `call`, from frames laid out by `compiled`.
fn run(
    compiled: &CompiledInterface,
    payload: &[u8],
    count: u32,
    caller_buf: bool,
    observed: &Mutex<Vec<u8>>,
    mut call: impl FnMut(usize, &mut [Value]) -> Result<u32, RpcError>,
) -> Seen {
    let status = |r: Result<u32, RpcError>| match r {
        Ok(s) | Err(RpcError::Remote(s)) => s,
        Err(e) => panic!("{e}"),
    };
    let mut frame = compiled.ops[1].slots.new_frame();
    frame[0] = Value::Bytes(payload.to_vec());
    assert_eq!(status(call(1, &mut frame)), 0);
    let client_data = frame[0].as_bytes().unwrap().to_vec();
    let mut frame = compiled.ops[0].slots.new_frame();
    frame[0] = Value::U32(count);
    if caller_buf {
        // Room for any read: a caller's buffer bounds what it may receive.
        frame[1] = Value::Bytes(Vec::with_capacity(256));
    }
    let s = status(call(0, &mut frame));
    let out = (s == 0).then(|| frame[1].window_of(&[]).unwrap().to_vec());
    Seen { observed: std::mem::take(&mut *observed.lock()), client_data, read: (s, out) }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The marshalled path is the oracle. One registration serves a client
    /// over `Loopback` in CDR and in XDR and a direct caller through
    /// `SameDomain`, for every (trashable? × preserved?) pair on `write`
    /// and (caller buffer? × server storage?) pair on `read`: the server
    /// observes the client's bytes, statuses and `out` bytes are equal,
    /// and the client's buffer survives a server that mutates whenever it
    /// may — everywhere but a direct call whose client said [trashable].
    #[test]
    fn direct_calls_agree_with_marshalled_ones(
        payload in prop::collection::vec(any::<u8>(), 1..256),
        count in 0u32..300,
        trashable in any::<bool>(),
        preserved in any::<bool>(),
        caller_buf in any::<bool>(),
        stored in any::<bool>(),
    ) {
        let m = fileio_example();
        let iface = m.interface("FileIO").unwrap();
        let base = InterfacePresentation::default_for(&m, iface).unwrap();
        let mut client_attrs = vec![];
        let mut server_attrs = vec![];
        if trashable { client_attrs.push(("write", "data", Attr::Trashable)); }
        if caller_buf { client_attrs.push(("read", "return", Attr::AllocCaller)); }
        if preserved { server_attrs.push(("write", "data", Attr::Preserved)); }
        if stored { server_attrs.push(("read", "return", Attr::DeallocNever)); }
        let client = annotated(&base, &client_attrs);
        let server = annotated(&base, &server_attrs);
        let compiled = CompiledInterface::compile(&m, iface, &client).unwrap();
        let observed: Arc<Mutex<Vec<u8>>> = Arc::default();
        let register = register(Arc::clone(&observed), stored);

        let mut marshalled = [WireFormat::Cdr, WireFormat::Xdr].map(|format| {
            let mut srv = ServerInterface::new(
                CompiledInterface::compile(&m, iface, &server).unwrap(),
                format,
            );
            register(&mut srv);
            let loopback = Loopback::new(Arc::new(Mutex::new(srv)));
            let mut stub = ClientStub::new(compiled.clone(), format, Box::new(loopback));
            run(&compiled, &payload, count, caller_buf, &observed, |i, f| stub.call_index(i, f))
        });

        let mut sd = SameDomain::bind(&m, iface, &client, &server, &register).unwrap();
        let mut write_copies = None;
        let mut direct = run(&compiled, &payload, count, caller_buf, &observed, |i, f| {
            let status = sd.call_index(i, f);
            write_copies.get_or_insert(sd.stats().snapshot().stub_copies);
            status
        });

        prop_assert_eq!(&marshalled[0], &marshalled[1], "CDR and XDR agree");
        prop_assert_eq!(&direct.observed, &payload, "the server sees the client's bytes");
        prop_assert_eq!(&direct.read, &marshalled[0].read, "equal statuses and out bytes");
        for seen in &mut marshalled {
            prop_assert_eq!(&seen.client_data, &payload, "a marshalled call shares no buffer");
        }
        if !trashable {
            prop_assert_eq!(&direct.client_data, &payload, "intact unless it said [trashable]");
        }
        direct.client_data = payload.clone();
        prop_assert_eq!(&direct, &marshalled[0]);
        // The stub copied `data` iff neither side relaxed.
        prop_assert_eq!(write_copies.unwrap() > 0, !trashable && !preserved);
    }
}

/// End-to-end `inout` parameter over the marshalled path: the value travels
/// both ways through one slot.
#[test]
fn inout_param_roundtrips_over_loopback() {
    let mut m = Module::new("acc", Dialect::Corba);
    m.interfaces.push(Interface::new(
        "Counter",
        vec![Operation::new(
            "bump",
            vec![
                Param::new("amount", ParamDir::In, Type::U32),
                Param::new("value", ParamDir::InOut, Type::U32),
                Param::new("tag", ParamDir::InOut, Type::octet_seq()),
            ],
            Type::Void,
        )],
    ));
    let iface = m.interface("Counter").unwrap();
    let pres = InterfacePresentation::default_for(&m, iface).unwrap();
    let compiled = CompiledInterface::compile(&m, iface, &pres).unwrap();

    let mut srv = ServerInterface::new(compiled.clone(), WireFormat::Cdr);
    srv.on("bump", |call| {
        let amount = call.u32("amount").unwrap();
        let value = call.u32("value").unwrap();
        let mut tag = call.bytes("tag").unwrap().to_vec();
        tag.reverse();
        call.set("value", Value::U32(value + amount)).unwrap();
        call.set("tag", Value::Bytes(tag)).unwrap();
        0
    })
    .unwrap();
    let server = Arc::new(Mutex::new(srv));
    let mut client = ClientStub::new(compiled, WireFormat::Cdr, Box::new(Loopback::new(server)));

    let mut frame = client.new_frame("bump").unwrap();
    frame[0] = Value::U32(5);
    frame[1] = Value::U32(37);
    frame[2] = Value::Bytes(b"pal".to_vec());
    client.call("bump", &mut frame).unwrap();
    assert_eq!(frame[1], Value::U32(42), "inout scalar came back updated");
    assert_eq!(frame[2].as_bytes().unwrap(), b"lap", "inout payload came back updated");

    // Second call reuses the updated state, proving the frame is coherent.
    frame[0] = Value::U32(8);
    client.call("bump", &mut frame).unwrap();
    assert_eq!(frame[1], Value::U32(50));
    assert_eq!(frame[2].as_bytes().unwrap(), b"pal");
}
