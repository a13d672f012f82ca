//! Cross-crate: a Sun RPC procedure number names the procedure the program
//! assigned it to, or nothing — on both Sun RPC servers (`serve_on_net`
//! behind the `SunRpc` transport, `expose_on_net` behind `SunRpcPipeline`).
//!
//! The shipped NFS program numbers its procedures 0, 1, 2, 4, 6, 8, 9, 10.
//! The unassigned numbers in between used to fall back to the declaration
//! ordinal — procedure 3 ran `LOOKUP`, 5 ran `WRITE`, 7 ran `REMOVE` — so
//! every call here carries arguments the ordinal's operation would accept:
//! a server that still fell back would run a handler and answer `SUCCESS`.

use flexrpc::core::ir::fileio_example;
use flexrpc::core::present::InterfacePresentation;
use flexrpc::core::program::{CompiledInterface, CompiledOp};
use flexrpc::core::{Interface, Module};
use flexrpc::engine::{expose_on_net, ClientInfo, Engine, SunRpcPipeline};
use flexrpc::marshal::WireFormat;
use flexrpc::net::sunrpc::{AcceptStat, AuthStat, Denial};
use flexrpc::net::{HostId, NetError, SimNet};
use flexrpc::nfs::{nfs_module, NFS_PROGRAM, NFS_VERSION};
use flexrpc::runtime::interp::marshal;
use flexrpc::runtime::transport::{serve_on_net, SunRpc};
use flexrpc::runtime::wire::AnyWriter;
use flexrpc::runtime::{ErrorKind, HookMap, RpcError, ServerInterface, Transport};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn compile(module: &Module, iface: &Interface) -> (InterfacePresentation, CompiledInterface) {
    let pres = InterfacePresentation::default_for(module, iface).expect("defaults");
    let compiled = CompiledInterface::compile(module, iface, &pres).expect("compiles");
    (pres, compiled)
}

/// A work function on every operation that only counts that it ran.
fn count_every_op(srv: &mut ServerInterface, ran: &Arc<AtomicU64>) {
    let names: Vec<String> = srv.compiled().ops.iter().map(|o| o.name.clone()).collect();
    for name in names {
        let ran = Arc::clone(ran);
        srv.on(&name, move |_| {
            ran.fetch_add(1, Ordering::SeqCst);
            0
        })
        .expect("registers");
    }
}

/// `op`'s request as its default client marshals an untouched frame.
fn default_request(op: &CompiledOp, format: WireFormat) -> Vec<u8> {
    let mut w = AnyWriter::new(format);
    marshal(&op.request_marshal, &op.slots.new_frame(), &[], &mut w, &HookMap::new(), &mut vec![])
        .expect("marshals");
    w.into_bytes()
}

/// One program served both ways on one net, every handler counting into
/// `ran`: host `.1` by `serve_on_net`, host `.2` by an engine.
struct Served {
    net: Arc<SimNet>,
    client: HostId,
    plain: HostId,
    engine_host: HostId,
    _engine: Arc<Engine>,
    compiled: CompiledInterface,
    format: WireFormat,
    prog: u32,
    vers: u32,
    ran: Arc<AtomicU64>,
}

fn serve_both_ways(module: Module, format: WireFormat, prog: u32, vers: u32) -> Served {
    let iface = module.interfaces[0].clone();
    let (pres, compiled) = compile(&module, &iface);
    let ran = Arc::new(AtomicU64::new(0));
    let net = SimNet::new();
    let client = net.add_host("client");
    let plain = net.add_host("serve_on_net");
    let engine_host = net.add_host("expose_on_net");

    let mut srv = ServerInterface::new(compiled.clone(), format);
    count_every_op(&mut srv, &ran);
    serve_on_net(&net, plain, Arc::new(Mutex::new(srv)), prog, vers).expect("serves");

    let engine = Engine::builder().workers(1).build();
    let counted = Arc::clone(&ran);
    engine
        .register_service("svc", module, &iface.name, pres.clone(), format, move |srv| {
            count_every_op(srv, &counted)
        })
        .expect("registers");
    expose_on_net(&engine, &net, engine_host, "svc", prog, vers, ClientInfo::of(&pres))
        .expect("exposes");

    Served { net, client, plain, engine_host, _engine: engine, compiled, format, prog, vers, ran }
}

impl Served {
    /// Calls procedure `proc` on both servers with the arguments of the
    /// operation at `ordinal`; returns what each answered.
    fn call_both(&self, proc: u32, ordinal: usize) -> [AcceptStat; 2] {
        let mut op = self.compiled.ops[ordinal].clone();
        op.opnum = Some(proc);
        let request = default_request(&op, self.format);

        let mut transport =
            SunRpc::new(Arc::clone(&self.net), self.client, self.plain, self.prog, self.vers);
        let (mut reply, mut rights) = (Vec::new(), Vec::new());
        let plain = match transport.call(&op, &request, &[], &mut reply, &mut rights) {
            Ok(_) => AcceptStat::Success,
            Err(RpcError::Net(NetError::Refused(stat))) => stat,
            Err(other) => panic!("procedure {proc} over SunRpc: {other}"),
        };

        let mut pipeline = SunRpcPipeline::new(
            Arc::clone(&self.net),
            self.client,
            self.engine_host,
            self.prog,
            self.vers,
        );
        pipeline.submit(proc, &request);
        let replies = pipeline.flush().expect("flushes");
        [plain, replies[0].0]
    }
}

#[test]
fn an_unassigned_nfs_procedure_number_is_proc_unavail_on_both_servers() {
    let nfs = serve_both_ways(nfs_module(), WireFormat::Xdr, NFS_PROGRAM, NFS_VERSION);
    let numbers: Vec<Option<u32>> = nfs.compiled.ops.iter().map(|o| o.opnum).collect();
    assert_eq!(numbers, [0, 1, 2, 4, 6, 8, 9, 10].map(Some), "the shipped numbering");

    // Unassigned, inside the ordinal range: the arguments are the ones the
    // operation at that ordinal takes, so a fallback would have run it.
    for proc in [3u32, 5, 7] {
        assert_eq!(nfs.call_both(proc, proc as usize), [AcceptStat::ProcUnavail; 2], "{proc}");
    }
    // Unassigned, past the end.
    assert_eq!(nfs.call_both(11, 0), [AcceptStat::ProcUnavail; 2]);
    assert_eq!(nfs.ran.load(Ordering::SeqCst), 0, "no handler ran for an unassigned number");

    // Every assigned number still reaches its own operation.
    for (ordinal, proc) in numbers.iter().enumerate() {
        let proc = proc.expect("numbered");
        assert_eq!(nfs.call_both(proc, ordinal), [AcceptStat::Success; 2], "procedure {proc}");
    }
    assert_eq!(nfs.ran.load(Ordering::SeqCst), 2 * numbers.len() as u64);
}

#[test]
fn an_unnumbered_interface_still_dispatches_by_ordinal() {
    // The CORBA dialect numbers nothing: the declaration ordinal is the
    // procedure number, on both servers.
    let fileio = serve_both_ways(fileio_example(), WireFormat::Cdr, 200001, 1);
    assert!(fileio.compiled.ops.iter().all(|o| o.opnum.is_none()));
    let ops = fileio.compiled.ops.len();
    for ordinal in 0..ops {
        assert_eq!(fileio.call_both(ordinal as u32, ordinal), [AcceptStat::Success; 2]);
    }
    assert_eq!(fileio.ran.load(Ordering::SeqCst), 2 * ops as u64);
    assert_eq!(fileio.call_both(ops as u32, 0), [AcceptStat::ProcUnavail; 2]);
    assert_eq!(fileio.ran.load(Ordering::SeqCst), 2 * ops as u64);
}

/// RFC 5531: a `PROG_MISMATCH` reply names the versions the server serves,
/// `mismatch_info { low, high }`, behind its status — the record mark and
/// eight words, which is what libtirpc's `xdr_replymsg` reads. Both servers
/// used to stop after the status, six words, and that reply did not decode
/// there. Both clients read the whole reply as the refusal it is.
#[test]
fn a_version_mismatch_names_the_served_version_on_both_servers() {
    let fileio = serve_both_ways(fileio_example(), WireFormat::Cdr, 200001, 3);
    let op = &fileio.compiled.ops[0];
    let request = default_request(op, fileio.format);
    let call = flexrpc::net::sunrpc::encode_call(
        flexrpc::net::sunrpc::CallHeader { xid: 77, prog: 200001, vers: 4, proc: 0 },
        &request,
    );
    for host in [fileio.plain, fileio.engine_host] {
        let mut reply = Vec::new();
        fileio.net.link(fileio.client, host).call(&call, &mut reply).expect("answers");
        let words: Vec<u32> =
            reply.chunks_exact(4).map(|w| u32::from_be_bytes(w.try_into().unwrap())).collect();
        assert_eq!(words, [0x8000_0020, 77, 1, 0, 0, 0, 2, 3, 3], "{host:?}: mark + 8 words");
    }

    let mut transport =
        SunRpc::new(Arc::clone(&fileio.net), fileio.client, fileio.plain, 200001, 4);
    let (mut reply, mut rights) = (Vec::new(), Vec::new());
    let refused = transport.call(op, &request, &[], &mut reply, &mut rights).unwrap_err();
    assert_eq!(refused, RpcError::Net(NetError::Refused(AcceptStat::ProgMismatch)));
    let mut pipeline =
        SunRpcPipeline::new(Arc::clone(&fileio.net), fileio.client, fileio.engine_host, 200001, 4);
    pipeline.submit(0, &request);
    assert_eq!(pipeline.flush().expect("flushes")[0].0, AcceptStat::ProgMismatch);
    assert_eq!(fileio.ran.load(Ordering::SeqCst), 0, "no handler ran");
}

/// RFC 5531: a call whose credential the server cannot check is denied —
/// `MSG_DENIED`, `AUTH_ERROR`, then the `auth_stat` — with no verifier: the
/// record mark and five words. `AUTH_SYS` (flavor 1, what NFS clients send)
/// is a flavor neither server checks, so both answer `AUTH_REJECTEDCRED`,
/// as libtirpc does for a flavor it does not know. Both used to send
/// nothing. A client reads such a reply as a typed, fatal denial.
#[test]
fn an_unsupported_credential_is_denied_on_both_servers() {
    let nfs = serve_both_ways(nfs_module(), WireFormat::Xdr, NFS_PROGRAM, NFS_VERSION);
    // `authsys_parms`: stamp, machine name "nfs-client", uid, gid, one gid.
    let mut cred = Vec::new();
    for word in [0x1234, 10] {
        cred.extend_from_slice(&u32::to_be_bytes(word));
    }
    cred.extend_from_slice(b"nfs-client\0\0");
    for word in [1000, 1000, 1, 1000] {
        cred.extend_from_slice(&u32::to_be_bytes(word));
    }
    let mut call = Vec::new();
    let len = (6 + 2 + 2) * 4 + cred.len();
    for word in [0x8000_0000 | len as u32, 41, 0, 2, NFS_PROGRAM, NFS_VERSION, 0, 1] {
        call.extend_from_slice(&word.to_be_bytes());
    }
    call.extend_from_slice(&(cred.len() as u32).to_be_bytes());
    call.extend_from_slice(&cred);
    call.extend_from_slice(&[0; 8]); // Null verifier; NFS `NULL` takes no arguments.
    for host in [nfs.plain, nfs.engine_host] {
        let mut reply = Vec::new();
        nfs.net.link(nfs.client, host).call(&call, &mut reply).expect("answers");
        let words: Vec<u32> =
            reply.chunks_exact(4).map(|w| u32::from_be_bytes(w.try_into().unwrap())).collect();
        assert_eq!(words, [0x8000_0014, 41, 1, 1, 1, 2], "{host:?}: mark + 5 words");
    }
    assert_eq!(nfs.ran.load(Ordering::SeqCst), 0, "no handler ran");

    // A server to which the client's credential is unknown denies it.
    let denier = nfs.net.add_host("denier");
    nfs.net
        .register_handler(denier, |msg, out| {
            let (hdr, ..) = flexrpc::net::sunrpc::decode_call_tagged(msg)?;
            flexrpc::net::sunrpc::encode_denial_into(out, hdr.xid, AuthStat::RejectedCred);
            Ok(())
        })
        .expect("registers");
    let op = &nfs.compiled.ops[0];
    let mut transport =
        SunRpc::new(Arc::clone(&nfs.net), nfs.client, denier, NFS_PROGRAM, NFS_VERSION);
    let (mut reply, mut rights) = (Vec::new(), Vec::new());
    let request = default_request(op, nfs.format);
    let denied = transport.call(op, &request, &[], &mut reply, &mut rights).unwrap_err();
    let why = Denial::Auth(AuthStat::RejectedCred);
    assert_eq!(denied, RpcError::Net(NetError::Denied(why)));
    assert_eq!(denied.kind(), ErrorKind::Fatal);
}
