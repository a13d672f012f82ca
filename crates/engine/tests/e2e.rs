//! End-to-end acceptance tests: one engine, many concurrent clients, mixed
//! program combinations.
//!
//! The headline test drives eight concurrent clients — split across two
//! pipe services (default vs `dealloc(never)` read presentation) and two
//! client trust levels — against a single engine and asserts the three
//! engine guarantees together:
//!
//! 1. every reply is correct (pipe bytes conserved, patterns intact);
//! 2. the program cache compiled fewer programs than connections arrived
//!    (combination reuse, observable through hit counters);
//! 3. the `dealloc(never)` copy savings measured by the seed's single-client
//!    figures still hold with the server shared: zero intermediate copies,
//!    while the default presentation copies every byte read.

use flexrpc_core::present::{InterfacePresentation, Trust};
use flexrpc_core::value::Value;
use flexrpc_engine::{expose_on_net, ClientInfo, Engine, SunRpcPipeline};
use flexrpc_marshal::WireFormat;
use flexrpc_net::sunrpc::AcceptStat;
use flexrpc_net::SimNet;
use flexrpc_pipes::circ::CircBuf;
use flexrpc_pipes::server::{
    register_pipe_handlers, server_presentation, PipeServerStats, ReadPresentation,
};
use flexrpc_pipes::{fileio_module, WOULDBLOCK};
use flexrpc_runtime::{ClientStub, RpcError};
use parking_lot::Mutex;
use std::sync::atomic::Ordering;
use std::sync::Arc;

const CHUNK: usize = 256;
const ROUNDS: usize = 32;
const CLIENTS_PER_SERVICE: usize = 4;

/// Registers a pipe service on the engine; returns its ring and stats.
fn register_pipe_service(
    engine: &Arc<Engine>,
    name: &str,
    mode: ReadPresentation,
    cap: usize,
) -> (Arc<Mutex<CircBuf>>, Arc<PipeServerStats>) {
    let ring = Arc::new(Mutex::new(CircBuf::new(cap)));
    let stats = Arc::new(PipeServerStats::default());
    let (r, s) = (Arc::clone(&ring), Arc::clone(&stats));
    engine
        .register_service(
            name,
            fileio_module(),
            "FileIO",
            server_presentation(mode),
            WireFormat::Cdr,
            move |srv| register_pipe_handlers(srv, &r, &s, mode),
        )
        .expect("service registers");
    (ring, stats)
}

/// A default FileIO client presentation with the given trust in the server.
fn client_presentation(trust: Trust) -> InterfacePresentation {
    let m = fileio_module();
    let iface = m.interface("FileIO").expect("FileIO exists");
    let mut pres = InterfacePresentation::default_for(&m, iface).expect("defaults");
    pres.trust = trust;
    pres
}

/// Builds a client stub over an engine connection for `service`.
fn pipe_client(engine: &Arc<Engine>, service: &str, trust: Trust) -> ClientStub {
    let pres = client_presentation(trust);
    let conn = engine.connect(service).client(ClientInfo::of(&pres)).establish().expect("connect");
    let m = fileio_module();
    let iface = m.interface("FileIO").expect("FileIO exists");
    let compiled =
        flexrpc_core::program::CompiledInterface::compile(&m, iface, &pres).expect("compiles");
    ClientStub::new(compiled, WireFormat::Cdr, Box::new(conn))
}

/// Treats a remote status as a value (the pipe protocol's EAGAIN idiom).
fn status_of(r: Result<u32, RpcError>) -> u32 {
    match r {
        Ok(s) => s,
        Err(RpcError::Remote(s)) => s,
        Err(e) => panic!("rpc failed: {e}"),
    }
}

/// Writes `CHUNK` pattern bytes, retrying while the pipe is full. Then
/// tries one read; returns the bytes it got (possibly empty on
/// `WOULDBLOCK`), asserting every byte carries the service's pattern.
fn write_then_read(client: &mut ClientStub, pattern: u8) -> usize {
    let mut wf = client.new_frame("write").expect("frame");
    loop {
        wf[0] = Value::Bytes(vec![pattern; CHUNK]);
        match status_of(client.call("write", &mut wf)) {
            0 => break,
            WOULDBLOCK => std::thread::yield_now(),
            s => panic!("write failed with status {s}"),
        }
    }
    let mut rf = client.new_frame("read").expect("frame");
    rf[0] = Value::U32(CHUNK as u32);
    match status_of(client.call("read", &mut rf)) {
        0 | WOULDBLOCK => {}
        s => panic!("read failed with status {s}"),
    }
    let Value::Bytes(data) = &rf[1] else { panic!("read reply is not bytes") };
    assert!(data.iter().all(|&b| b == pattern), "pipe interleaved foreign bytes");
    data.len()
}

/// Reads until the pipe reports empty, returning the bytes drained.
fn drain(client: &mut ClientStub, pattern: u8) -> usize {
    let mut total = 0;
    loop {
        let mut rf = client.new_frame("read").expect("frame");
        rf[0] = Value::U32(CHUNK as u32);
        let status = status_of(client.call("read", &mut rf));
        let Value::Bytes(data) = &rf[1] else { panic!("read reply is not bytes") };
        assert!(data.iter().all(|&b| b == pattern));
        total += data.len();
        if status == WOULDBLOCK {
            return total;
        }
    }
}

#[test]
fn eight_clients_two_services_two_trusts_one_engine() {
    let engine = Engine::builder().workers(4).queue_depth(32).build();
    // Ring capacity exceeds each service's total traffic, so the
    // dealloc(never) ring never wraps and the paper's "no wrap, no copy"
    // fast path is the one under test.
    let cap = 2 * CLIENTS_PER_SERVICE * ROUNDS * CHUNK;
    let (_, default_stats) =
        register_pipe_service(&engine, "pipe-default", ReadPresentation::Default, cap);
    let (_, never_stats) =
        register_pipe_service(&engine, "pipe-never", ReadPresentation::DeallocNever, cap);

    // 8 connections over 4 combinations: {service} × {trust}.
    let plan: Vec<(&str, Trust, u8)> = (0..CLIENTS_PER_SERVICE)
        .flat_map(|i| {
            let trust = if i % 2 == 0 { Trust::None } else { Trust::Leaky };
            [("pipe-default", trust, 0xAAu8), ("pipe-never", trust, 0x55u8)]
        })
        .collect();
    assert_eq!(plan.len(), 2 * CLIENTS_PER_SERVICE);

    let handles: Vec<_> = plan
        .iter()
        .map(|&(service, trust, pattern)| {
            let mut client = pipe_client(&engine, service, trust);
            std::thread::spawn(move || {
                (0..ROUNDS).map(|_| write_then_read(&mut client, pattern)).sum::<usize>()
            })
        })
        .collect();
    let read_during: usize = handles.into_iter().map(|h| h.join().expect("client ok")).sum();

    // (a) Correctness: every written byte comes back exactly once, carrying
    // its service's pattern (asserted inside the clients), none invented.
    let mut d = pipe_client(&engine, "pipe-default", Trust::None);
    let mut n = pipe_client(&engine, "pipe-never", Trust::None);
    let leftover = drain(&mut d, 0xAA) + drain(&mut n, 0x55);
    let written = plan.len() * ROUNDS * CHUNK;
    assert_eq!(read_during + leftover, written, "pipe bytes conserved");

    // (b) Combination reuse: 10 connections (8 clients + 2 drainers), only
    // 4 distinct combinations, so only 4 compilations.
    let stats = engine.stats();
    assert_eq!(stats.connections, 10);
    assert_eq!(stats.cache.misses, 4, "one compile per combination");
    assert!(
        engine.cache().compilations() < stats.connections,
        "programs ({}) must be shared across connections ({})",
        engine.cache().compilations(),
        stats.connections,
    );
    assert_eq!(stats.cache.hits, 6, "6 of 10 connections reused a program");
    assert_eq!(stats.dispatch_errors, 0);
    assert_eq!(stats.in_flight, 0);

    // (b') The program a connection shares out of the cache is the fused
    // one: the engine's serving path runs fewer interpreter dispatches than
    // the threaded op count.
    let conn = engine
        .connect("pipe-default")
        .client(ClientInfo::of(&client_presentation(Trust::None)))
        .establish()
        .expect("connect");
    let (ops, dispatches) = conn
        .program()
        .ops
        .iter()
        .flat_map(|o| {
            [&o.request_marshal, &o.request_unmarshal, &o.reply_marshal, &o.reply_unmarshal]
        })
        .fold((0, 0), |(ops, d), p| (ops + p.ops.len(), d + p.dispatch_count()));
    assert!(dispatches < ops, "shared programs are fused: {dispatches} dispatches, {ops} ops");

    // (c) The seed's dealloc(never) copy delta holds under concurrency:
    // the default service copied every byte its readers got; the
    // dealloc(never) service marshalled straight from the ring.
    let default_read = default_stats.intermediate_copy_bytes.load(Ordering::Relaxed);
    assert!(default_read > 0, "default presentation pays the copy");
    assert_eq!(never_stats.intermediate_copy_bytes.load(Ordering::Relaxed), 0);
    assert_eq!(never_stats.wrap_fallbacks.load(Ordering::Relaxed), 0);

    engine.shutdown();
}

/// A pipelined Sun RPC batch executes across workers *concurrently*: four
/// calls whose handler blocks on a 4-way barrier can only complete if all
/// four records of the batch are in flight at once.
#[test]
fn pipelined_batch_executes_concurrently() {
    let engine = Engine::builder().workers(4).queue_depth(16).build();
    let barrier = Arc::new(std::sync::Barrier::new(4));
    let b = Arc::clone(&barrier);
    engine
        .register_service(
            "gate",
            fileio_module(),
            "FileIO",
            server_presentation(ReadPresentation::Default),
            WireFormat::Xdr,
            move |srv| {
                let b = Arc::clone(&b);
                srv.on("write", move |_call| {
                    b.wait();
                    0
                })
                .expect("write registers");
            },
        )
        .expect("service registers");

    let net = SimNet::new();
    let client_host = net.add_host("client");
    let server_host = net.add_host("server");
    let client = ClientInfo::of(&client_presentation(Trust::None));
    expose_on_net(&engine, &net, server_host, "gate", 700, 1, client).expect("exposes");

    let mut pipeline = SunRpcPipeline::new(Arc::clone(&net), client_host, server_host, 700, 1);
    let write_op = 1; // FileIO op order: read, write.
    for _ in 0..4 {
        let mut w = flexrpc_runtime::wire::AnyWriter::new(WireFormat::Xdr);
        w.put_bytes(b"ping");
        pipeline.submit(write_op, &w.into_bytes());
    }
    assert_eq!(pipeline.outstanding(), 4);
    let replies = pipeline.flush().expect("batch completes — proves concurrency");
    assert_eq!(replies.len(), 4);
    assert!(replies.iter().all(|(stat, _)| *stat == AcceptStat::Success));

    let stats = engine.stats();
    assert_eq!(stats.calls_served, 4);
    assert!(stats.peak_in_flight >= 4, "all four XIDs were outstanding together");
}

/// The engine-hosted NFS server is indistinguishable from the seed's
/// dedicated `serve_nfs` loop: the Figure 2 client harness reads a file
/// through it, conventional and `[special]` presentations alike.
#[test]
fn engine_hosted_nfs_serves_the_fig2_clients() {
    use flexrpc_nfs::client::{ClientVariant, NfsClientHarness};
    use flexrpc_nfs::server::{nfs_presentation, register_nfs_handlers, FileStore};
    use flexrpc_nfs::{nfs_module, NFS_PROGRAM, NFS_VERSION};

    let engine = Engine::builder().workers(2).queue_depth(16).build();
    let store = Arc::new(Mutex::new(FileStore::new()));
    let m = nfs_module();
    let iface_name = m.interfaces[0].name.clone();
    let st = Arc::clone(&store);
    engine
        .register_service("nfs", m, &iface_name, nfs_presentation(), WireFormat::Xdr, move |srv| {
            register_nfs_handlers(srv, &st)
        })
        .expect("service registers");

    let len = 20_000;
    let data = flexrpc_nfs::server::test_file(len, 7);
    let fh = store.lock().add_file(data.clone());

    let net = SimNet::new();
    let client_host = net.add_host("client");
    let server_host = net.add_host("server");
    let client = ClientInfo::of(&nfs_presentation());
    expose_on_net(&engine, &net, server_host, "nfs", NFS_PROGRAM, NFS_VERSION, client)
        .expect("exposes");

    let mut harness = NfsClientHarness::new(Arc::clone(&net), client_host, server_host, fh, len);
    for variant in [ClientVariant::ConventionalGenerated, ClientVariant::SpecialGenerated] {
        let attrs = harness.read_file(variant, len, 8192).expect("read succeeds");
        assert_eq!(attrs.size as usize, len);
        assert_eq!(harness.user_buffer(), data, "{variant:?} delivered the file intact");
    }
    assert_eq!(engine.stats().calls_served, 2 * len.div_ceil(8192) as u64);
    assert_eq!(engine.cache().compilations(), 1, "both variants share the server program");
}
