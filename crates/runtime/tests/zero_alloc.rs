//! Steady-state allocation audit for the specialized call path.
//!
//! A fused, presized, fixed-size call (all-scalar signature) must make
//! **zero** heap allocations per call once the stub's scratch buffers are
//! warm: the request marshals into the reused request buffer (reserved
//! exactly once by the size hint), the echo transport refills the reused
//! reply buffer, and the fused unmarshal decodes scalars straight into the
//! frame. This is the paper's "no hidden allocation in generated stubs"
//! property, asserted with a counting global allocator.

use flexrpc_core::ir::{Dialect, Interface, Module, Operation, Param, ParamDir, Type};
use flexrpc_core::present::InterfacePresentation;
use flexrpc_core::program::{CompiledInterface, CompiledOp};
use flexrpc_core::value::Value;
use flexrpc_marshal::WireFormat;
use flexrpc_runtime::policy::CallControl;
use flexrpc_runtime::{ClientStub, ServerInterface, Transport};
use std::sync::{Arc, Mutex};

mod counting_alloc;
use counting_alloc::{alloc_bytes, allocs};

/// An all-scalar (fixed-size) operation: `scale(a: u32, b: u64, on: bool)
/// -> u32`.
fn fixed_module() -> Module {
    let op = Operation::new(
        "scale",
        vec![
            Param { name: "a".into(), dir: ParamDir::In, ty: Type::U32 },
            Param { name: "b".into(), dir: ParamDir::In, ty: Type::U64 },
            Param { name: "on".into(), dir: ParamDir::In, ty: Type::Bool },
        ],
        Type::U32,
    );
    let mut m = Module::new("fixed", Dialect::Corba);
    m.interfaces.push(Interface::new("Fixed", vec![op]));
    m
}

fn compile() -> CompiledInterface {
    let m = fixed_module();
    let iface = m.interface("Fixed").expect("interface");
    let pres = InterfacePresentation::default_for(&m, iface).expect("defaults");
    CompiledInterface::compile(&m, iface, &pres).expect("compiles")
}

/// In-process transport: dispatches straight into a `ServerInterface`,
/// reusing the caller's reply buffer. No queues, no copies beyond the
/// server's own marshal — the minimal harness around the stub code under
/// audit.
struct Inline {
    server: Arc<Mutex<ServerInterface>>,
}

impl Transport for Inline {
    fn call_with(
        &mut self,
        op: &CompiledOp,
        request: &[u8],
        rights: &[u32],
        reply: &mut Vec<u8>,
        rights_out: &mut Vec<u32>,
        _ctl: &CallControl,
    ) -> flexrpc_runtime::Result<usize> {
        self.server
            .lock()
            .expect("server lock")
            .dispatch(op.index, request, rights, reply, rights_out)?;
        Ok(0)
    }
}

fn stub(format: WireFormat) -> ClientStub {
    let mut server = ServerInterface::new(compile(), format);
    server
        .on("scale", |call| {
            let a = call.u32("a").expect("a");
            call.set("return", Value::U32(a * 2)).expect("return");
            0
        })
        .expect("registers");
    ClientStub::new(compile(), format, Box::new(Inline { server: Arc::new(Mutex::new(server)) }))
}

#[test]
fn fused_fixed_size_call_allocates_nothing_when_warm() {
    for format in [WireFormat::Xdr, WireFormat::Cdr] {
        let mut stub = stub(format);
        let mut frame = stub.new_frame("scale").expect("frame");
        frame[0] = Value::U32(21);
        frame[1] = Value::U64(7);
        frame[2] = Value::Bool(true);

        // Warm-up: scratch buffers reach steady-state capacity.
        for _ in 0..16 {
            let status = stub.call("scale", &mut frame).expect("call");
            assert_eq!(status, 0);
        }

        let before = allocs();
        for _ in 0..100 {
            stub.call("scale", &mut frame).expect("call");
        }
        let delta = allocs() - before;
        assert_eq!(
            delta, 0,
            "fused fixed-size call allocated {delta} times over 100 warm calls on {format:?}"
        );
        assert_eq!(frame[3], Value::U32(42), "result survives the audit loop");
    }
}

/// The *traced* warm path allocates nothing either: spans record into the
/// pre-allocated ring by plain stores, so asking for observability never
/// costs an allocation per call. (The tracer itself — ring plus box — is
/// allocated once, on the first traced call, inside the warm-up loop.)
#[test]
fn traced_fused_call_allocates_nothing_when_warm() {
    use flexrpc_runtime::policy::CallOptions;

    let mut stub = stub(WireFormat::Cdr);
    let options = CallOptions::default().traced();
    let mut frame = stub.new_frame("scale").expect("frame");
    frame[0] = Value::U32(21);
    frame[1] = Value::U64(7);
    frame[2] = Value::Bool(true);

    // Warm-up: installs the tracer (one-time allocations) and brings the
    // scratch buffers to steady-state capacity.
    for _ in 0..16 {
        let status = stub.call_with("scale", &mut frame, &options).expect("call");
        assert_eq!(status, 0);
    }

    let before = allocs();
    for _ in 0..100 {
        stub.call_with("scale", &mut frame, &options).expect("call");
    }
    let delta = allocs() - before;
    assert_eq!(delta, 0, "traced warm call allocated {delta} times over 100 calls");

    let trace = stub.trace().expect("tracer installed");
    // Marshal, transport, and unmarshal spans for each of the 116 calls.
    assert_eq!(trace.ring().total(), 116 * 3, "three spans per traced call");
    assert_eq!(frame[3], Value::U32(42), "result survives the audit loop");
}

#[test]
fn warm_call_allocation_audit_is_meaningful() {
    // Sanity-check the counter itself: an allocating workload must trip it.
    let before = allocs();
    let v = std::hint::black_box(vec![0u8; 4096]);
    drop(v);
    assert!(allocs() > before, "counting allocator is live");
}

/// The at-most-once *cache-hit* path — tag lookup plus a copy into the
/// caller's reused buffers — allocates nothing once those buffers are
/// warm. Duplicate suppression must not cost the steady-state allocation
/// guarantee the specialized call path established.
#[test]
fn reply_cache_hit_allocates_nothing_when_warm() {
    use flexrpc_runtime::policy::CallTag;
    use flexrpc_runtime::replycache::ReplyCache;

    let mut server = ServerInterface::new(compile(), WireFormat::Cdr);
    let cache = ReplyCache::new(flexrpc_clock::SimClock::new(), std::time::Duration::from_secs(1));
    server.set_reply_cache(Arc::clone(&cache));
    server
        .on("scale", |call| {
            let a = call.u32("a").expect("a");
            call.set("return", Value::U32(a * 2)).expect("return");
            0
        })
        .expect("registers");

    // Marshal one valid request by hand (CDR, all scalars).
    let mut w = flexrpc_runtime::wire::AnyWriter::new(WireFormat::Cdr);
    w.put_u32(21);
    w.put_u64(7);
    w.put_bool(true);
    let request = w.into_bytes();

    let tag = CallTag::new(1, 0);
    let mut reply = Vec::new();
    let mut rights_out = Vec::new();
    // First tagged dispatch executes and records; a few more warm the
    // reply buffer to steady-state capacity.
    for _ in 0..16 {
        server
            .dispatch_tagged(0, &request, &[], Some(tag), 0, &mut reply, &mut rights_out)
            .expect("dispatch");
    }
    assert_eq!(cache.stats().executions, 1, "only the first dispatch ran the handler");

    let before = allocs();
    for _ in 0..100 {
        server
            .dispatch_tagged(0, &request, &[], Some(tag), 0, &mut reply, &mut rights_out)
            .expect("replay");
    }
    let delta = allocs() - before;
    assert_eq!(delta, 0, "cache-hit path allocated {delta} times over 100 warm replays");
    assert_eq!(cache.stats().suppressions, 115, "every repeat was answered from the cache");
}

/// The whole at-most-once Sun RPC hop — tagged `ClientStub` → `SunRpc` →
/// `SimNet` → `serve_on_net` → reply cache — allocates only what it keeps.
/// A fresh `read` of a fixed size makes exactly one allocation: the work
/// function's result payload. The cache keeps its copy of the reply too,
/// but in a slab it fills in record order and reuses once the TTL has
/// swept it, not in an allocation of its own. A retransmission of the same
/// tag, answered by `replay`, runs no work function and records nothing,
/// so it makes none. The call frame, the receive copy, the reply and the
/// caller's result payload all live in buffers kept across calls; the
/// reply the server marshals and the framed reply are one buffer, the
/// caller's, which the server marshals into behind the header it seals.
#[test]
fn tagged_sunrpc_round_trip_allocates_only_what_it_keeps() {
    use flexrpc_core::ir::fileio_example;
    use flexrpc_net::SimNet;
    use flexrpc_runtime::policy::CallOptions;
    use flexrpc_runtime::replycache::ReplyCache;
    use flexrpc_runtime::transport::{serve_on_net, SunRpc};

    const READ: u32 = 1024;
    let m = fileio_example();
    let iface = m.interface("FileIO").expect("interface");
    let pres = InterfacePresentation::default_for(&m, iface).expect("defaults");
    let compiled = Arc::new(CompiledInterface::compile(&m, iface, &pres).expect("compiles"));

    let net = SimNet::new();
    let (client_host, server_host) = (net.add_host("client"), net.add_host("server"));
    let cache = ReplyCache::new(Arc::clone(net.clock()), std::time::Duration::from_secs(1));
    let mut server = ServerInterface::new_shared(Arc::clone(&compiled), WireFormat::Xdr);
    server.set_reply_cache(Arc::clone(&cache));
    server
        .on("read", |call| {
            let count = call.u32("count").expect("count") as usize;
            call.set("return", Value::Bytes(vec![0xAB; count])).expect("return");
            0
        })
        .expect("registers");
    serve_on_net(&net, server_host, Arc::new(parking_lot::Mutex::new(server)), 600_001, 1)
        .expect("serves");
    let transport = SunRpc::new(Arc::clone(&net), client_host, server_host, 600_001, 1);
    let mut stub = ClientStub::new_shared(compiled, WireFormat::Xdr, Box::new(transport));
    stub.enable_at_most_once();
    // Only the policy path tags calls.
    let options = CallOptions::default();
    let mut frame = stub.new_frame("read").expect("frame");
    frame[0] = Value::U32(READ);

    // Warm-up past one TTL of wire time (≈ 620 calls): every kept buffer
    // reaches its steady-state capacity and the cache is evicting as fast
    // as it records, so its map, expiry queue and slabs have stopped
    // growing.
    for _ in 0..1_000 {
        assert_eq!(stub.call_with("read", &mut frame, &options).expect("call"), 0);
    }
    assert!(cache.stats().evictions > 0, "the audit runs with eviction live");

    const FRESH: u64 = 100;
    let before = allocs();
    for _ in 0..FRESH {
        stub.call_with("read", &mut frame, &options).expect("fresh call");
    }
    let fresh = allocs() - before;
    assert_eq!(
        fresh, FRESH,
        "{FRESH} fresh tagged calls allocated {fresh} times; budget is 1 each"
    );
    assert_eq!(cache.stats().suppressions, 0, "every call so far executed");

    // Retransmit the last logical call: same binding, same sequence number.
    let (binding, next_seq) = stub.at_most_once_state().expect("amo enabled");
    const RESENT: u64 = 100;
    let before = allocs();
    for _ in 0..RESENT {
        stub.resume_at_most_once(binding, next_seq - 1);
        stub.call_with("read", &mut frame, &options).expect("replayed call");
    }
    let resent = allocs() - before;
    assert_eq!(resent, 0, "{RESENT} retransmissions answered by replay allocated {resent} times");
    assert_eq!(cache.stats().suppressions, RESENT, "every retransmission was a cache hit");
    assert_eq!(frame[1], Value::Bytes(vec![0xAB; READ as usize]), "the replayed result");
}

/// The buffer a tagged Sun RPC reply is marshalled and framed in — the
/// caller's — stops growing once warm: its capacity after 1,000 calls of
/// the benchmark's sizes is its capacity after 10,000. The server grows it
/// to the largest capacity the operation has reached, counted from behind
/// the header room; asking `reserve` for that capacity *beyond* the room
/// doubled it on every call.
#[test]
fn the_tagged_sunrpc_reply_buffer_stops_growing_once_warm() {
    use flexrpc_core::ir::fileio_example;
    use flexrpc_net::SimNet;
    use flexrpc_runtime::policy::CallOptions;
    use flexrpc_runtime::replycache::ReplyCache;
    use flexrpc_runtime::transport::{serve_on_net, SunRpc};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// `SunRpc`, noting the reply buffer's capacity after every call.
    struct Watched(SunRpc, Arc<AtomicUsize>);
    impl Transport for Watched {
        fn call_with(
            &mut self,
            op: &CompiledOp,
            request: &[u8],
            rights: &[u32],
            reply: &mut Vec<u8>,
            rights_out: &mut Vec<u32>,
            ctl: &CallControl,
        ) -> flexrpc_runtime::Result<usize> {
            let body = self.0.call_with(op, request, rights, reply, rights_out, ctl);
            self.1.store(reply.capacity(), Ordering::Relaxed);
            body
        }
    }

    let m = fileio_example();
    let iface = m.interface("FileIO").expect("interface");
    let pres = InterfacePresentation::default_for(&m, iface).expect("defaults");
    let compiled = Arc::new(CompiledInterface::compile(&m, iface, &pres).expect("compiles"));
    let net = SimNet::new();
    let (client_host, server_host) = (net.add_host("client"), net.add_host("server"));
    let mut server = ServerInterface::new_shared(Arc::clone(&compiled), WireFormat::Xdr);
    server.set_reply_cache(ReplyCache::new(
        Arc::clone(net.clock()),
        std::time::Duration::from_secs(1),
    ));
    server
        .on("read", |call| {
            let count = call.u32("count").expect("count") as usize;
            call.set("return", Value::Bytes(vec![0xAB; count])).expect("return");
            0
        })
        .expect("registers");
    serve_on_net(&net, server_host, Arc::new(parking_lot::Mutex::new(server)), 600_001, 1)
        .expect("serves");
    let capacity = Arc::new(AtomicUsize::new(0));
    let transport = SunRpc::new(Arc::clone(&net), client_host, server_host, 600_001, 1);
    let watched = Watched(transport, Arc::clone(&capacity));
    let mut stub = ClientStub::new_shared(compiled, WireFormat::Xdr, Box::new(watched));
    stub.enable_at_most_once();
    let options = CallOptions::default();
    let mut frame = stub.new_frame("read").expect("frame");
    let mut calls = 0u32;
    let mut warm_to = |n: u32| {
        while calls < n {
            frame[0] = Value::U32([512, 1024, 1536, 1021][calls as usize % 4]);
            assert_eq!(stub.call_with("read", &mut frame, &options).expect("call"), 0);
            calls += 1;
        }
        capacity.load(Ordering::Relaxed)
    };
    let warm = warm_to(1_000);
    assert!(warm < 4 * 1536, "a 1,536 B read's frame fits in {warm} B of capacity");
    assert_eq!(warm_to(10_000), warm, "the reply buffer grew between 1,000 and 10,000 calls");
}

/// FileIO under `server_pdl` (empty: the default presentation), shared.
fn fileio(server_pdl: &str) -> Arc<CompiledInterface> {
    let m = flexrpc_core::ir::fileio_example();
    let iface = m.interface("FileIO").expect("interface");
    let mut pres = InterfacePresentation::default_for(&m, iface).expect("defaults");
    if !server_pdl.is_empty() {
        let pdl = flexrpc_idl::pdl::parse(server_pdl).expect("pdl parses");
        pres = flexrpc_core::annot::apply_pdl(&m, iface, &pres, &pdl).expect("pdl applies");
    }
    Arc::new(CompiledInterface::compile(&m, iface, &pres).expect("compiles"))
}

/// The sink-mode server half — the `[dealloc(never)]` / `[special]`
/// presentation whose point is that the reply payload goes from the
/// server's own storage into the message with *no* intermediate buffer —
/// allocates nothing per dispatch once the reply buffer is warm. (The sink
/// used to keep a `Vec` of the lengths it wrote, which nobody read: one
/// allocation per sink write.)
#[test]
fn warm_sink_mode_dispatch_allocates_nothing() {
    let compiled = fileio("sequence<octet> [dealloc(never)] FileIO_read(unsigned long count);");
    let read = compiled.op("read").expect("read op");
    assert_eq!(read.sink_params.len(), 1, "read's result is written through the sink");
    let index = read.index;
    let mut server = ServerInterface::new_shared(compiled, WireFormat::Cdr);
    let storage = [0x5Au8; 4096];
    server
        .on("read", move |call| {
            let count = call.u32("count").expect("count") as usize;
            call.sink.put(&storage[..count]).expect("sink write");
            0
        })
        .expect("registers");

    // `read(1024)` as the default client marshals it.
    let mut w = flexrpc_runtime::wire::AnyWriter::new(WireFormat::Cdr);
    w.put_u32(1024);
    let request = w.into_bytes();
    let (mut reply, mut rights_out) = (Vec::new(), Vec::new());
    for _ in 0..16 {
        server.dispatch(index, &request, &[], &mut reply, &mut rights_out).expect("dispatch");
    }
    let before = allocs();
    for _ in 0..100 {
        server.dispatch(index, &request, &[], &mut reply, &mut rights_out).expect("dispatch");
    }
    let delta = allocs() - before;
    assert_eq!(delta, 0, "100 warm sink-mode dispatches allocated {delta} times");
    let mut r = flexrpc_runtime::wire::AnyReader::new(WireFormat::Cdr, &reply).expect("reply");
    assert_eq!(r.get_bytes_borrowed().expect("payload"), &[0x5Au8; 1024][..]);
    assert_eq!(r.get_u32().expect("status"), 0);
}

/// What the benchmark's `null_loopback` counts as 1 allocation / 64 B per
/// op: a warm default-presentation `read(count)` over `Loopback` allocates
/// exactly the work function's one result `Vec` — the request, the reply,
/// both frames and the client's result payload all live in kept buffers.
/// So does it whether the loopback owns its server (handed the only
/// handle) or locks one the test still holds a handle to.
#[test]
fn warm_loopback_read_allocates_exactly_the_handlers_vec() {
    use flexrpc_runtime::transport::Loopback;

    for shared in [false, true] {
        let compiled = fileio("");
        let mut server = ServerInterface::new_shared(Arc::clone(&compiled), WireFormat::Cdr);
        let payload = [0xC3u8; 96];
        server
            .on("read", move |call| {
                let count = call.u32("count").expect("count") as usize;
                call.set("return", Value::Bytes(payload[..count].to_vec())).expect("return");
                0
            })
            .expect("registers");
        let server = Arc::new(parking_lot::Mutex::new(server));
        let _kept = shared.then(|| Arc::clone(&server));
        let transport = Loopback::new(server);
        let mut stub = ClientStub::new_shared(compiled, WireFormat::Cdr, Box::new(transport));
        let index = stub.op("read").expect("read op").index;
        let mut frame = stub.new_frame("read").expect("frame");

        // The benchmark's sizes: every length in 32..=96 has been seen once
        // the warm-up ends, so no kept buffer grows during the audit.
        let sizes = || (32..=96u32).cycle();
        for count in sizes().take(130) {
            frame[0] = Value::U32(count);
            assert_eq!(stub.call_index(index, &mut frame).expect("call"), 0);
        }
        const CALLS: u64 = 130;
        let (blocks, bytes) = (allocs(), alloc_bytes());
        for count in sizes().take(CALLS as usize) {
            frame[0] = Value::U32(count);
            stub.call_index(index, &mut frame).expect("call");
        }
        let (blocks, bytes) = (allocs() - blocks, alloc_bytes() - bytes);
        let handlers: u64 = sizes().take(CALLS as usize).map(u64::from).sum();
        assert_eq!(blocks, CALLS, "shared {shared}: {CALLS} warm reads allocated {blocks} times");
        assert_eq!(bytes, handlers, "shared {shared}: only the work function's bytes");
        assert_eq!(frame[1].as_bytes().expect("payload").len(), 96);
    }
}

/// A request that fails to marshal costs the *next* call nothing: the stub
/// seals its request buffer back on the error path too, so a `read` whose
/// `count` slot holds a string fails with `SlotKind` and the valid `read`
/// after it allocates what every warm one does — the work function's
/// result `Vec` — not a fresh request buffer besides.
#[test]
fn a_failed_request_marshal_costs_the_next_call_no_allocation() {
    use flexrpc_runtime::transport::Loopback;
    use flexrpc_runtime::RpcError;

    let compiled = fileio("");
    let mut server = ServerInterface::new_shared(Arc::clone(&compiled), WireFormat::Cdr);
    server
        .on("read", |call| {
            let count = call.u32("count").expect("count") as usize;
            call.set("return", Value::Bytes(vec![0xC3; count])).expect("return");
            0
        })
        .expect("registers");
    let transport = Loopback::new(Arc::new(parking_lot::Mutex::new(server)));
    let mut stub = ClientStub::new_shared(compiled, WireFormat::Cdr, Box::new(transport));
    let index = stub.op("read").expect("read op").index;
    let mut frame = stub.new_frame("read").expect("frame");
    let warm_read = |stub: &mut ClientStub, frame: &mut Vec<Value>| {
        frame[0] = Value::U32(64);
        let before = allocs();
        assert_eq!(stub.call_index(index, frame).expect("call"), 0);
        allocs() - before
    };
    for _ in 0..16 {
        warm_read(&mut stub, &mut frame);
    }
    let warm = warm_read(&mut stub, &mut frame);
    assert_eq!(warm, 1, "a warm read allocates the work function's result");

    frame[0] = Value::Str("sixty-four".into());
    let err = stub.call_index(index, &mut frame).unwrap_err();
    assert!(
        matches!(err, RpcError::SlotKind { slot: 0, expected: "u32", found: "str" }),
        "{err:?}"
    );
    assert_eq!(warm_read(&mut stub, &mut frame), warm, "the read after the failed one");
}

/// `server` served on a fresh kernel, and a stub speaking `client_side`
/// bound to it over `KernelIpc`.
fn kernel_stub(client_side: Arc<CompiledInterface>, server: ServerInterface) -> ClientStub {
    use flexrpc_core::present::Trust;
    use flexrpc_kernel::{Kernel, NameMode};
    use flexrpc_runtime::transport::{connect_kernel, serve_on_kernel};

    let kernel = Kernel::new();
    let client_task = kernel.create_task("client", 4096).expect("task");
    let server_task = kernel.create_task("server", 4096).expect("task");
    let server = Arc::new(parking_lot::Mutex::new(server));
    let port = serve_on_kernel(&kernel, server_task, server, Trust::None, NameMode::Unique)
        .expect("serves");
    let send = kernel.extract_send_right(server_task, port, client_task).expect("right");
    let sig = client_side.signature.hash();
    let transport = connect_kernel(&kernel, client_task, send, sig, Trust::None, NameMode::Unique)
        .expect("binds");
    ClientStub::new_shared(client_side, WireFormat::Cdr, Box::new(transport))
}

/// The kernel transport, `ClientStub` → `KernelIpc` → `serve_on_kernel`,
/// allocates per warm call only what the server's presentation keeps: the
/// reply marshals into the connection's send window, which the kernel takes
/// back after copying it to the client, and the client's reply buffer is
/// the stub's own. So a `write(4 KiB)` allocates nothing, however large the
/// `read` replies the same server produced in between; a `read(4 KiB)`
/// nothing under `[dealloc(never)]` (the sink writes the payload straight
/// into the window) and, under the default presentation, exactly the work
/// function's own 4 KiB result `Vec` — the cost Figure 6 charges the
/// default presentation.
#[test]
fn warm_kernel_ipc_call_allocates_only_what_the_presentation_keeps() {
    const IO: usize = 4096;
    const CALLS: u64 = 100;
    // As the pipe server presents it: every variant takes `write`'s data by
    // reference into the request message.
    let default = "void FileIO_write(char *[borrowed] data);";
    let never = "void FileIO_write(char *[borrowed] data);
                 sequence<octet> [dealloc(never)] FileIO_read(unsigned long count);";
    for (server_pdl, blocks_per_read) in [(default, 1), (never, 0)] {
        let mut server = ServerInterface::new_shared(fileio(server_pdl), WireFormat::Cdr);
        let storage = [0x5Au8; IO];
        server
            .on("read", move |call| {
                let count = call.u32("count").expect("count") as usize;
                if call.sink.expected() > 0 {
                    call.sink.put(&storage[..count]).expect("sink write");
                } else {
                    call.set("return", Value::Bytes(storage[..count].to_vec())).expect("return");
                }
                0
            })
            .expect("registers");
        server
            .on("write", |call| if call.bytes("data").expect("data").len() == IO { 0 } else { 1 })
            .expect("registers");
        let mut stub = kernel_stub(fileio(""), server);
        let (read, write) =
            (stub.op("read").expect("op").index, stub.op("write").expect("op").index);
        let mut read_frame = stub.new_frame("read").expect("frame");
        let mut write_frame = stub.new_frame("write").expect("frame");
        read_frame[0] = Value::U32(IO as u32);
        write_frame[0] = Value::Shared(Arc::from(vec![0xA5u8; IO]));

        // Warm-up, reads and writes interleaved as the pipe workload's are.
        for _ in 0..16 {
            assert_eq!(stub.call_index(write, &mut write_frame).expect("write"), 0);
            assert_eq!(stub.call_index(read, &mut read_frame).expect("read"), 0);
        }

        let (blocks, bytes) = (allocs(), alloc_bytes());
        for _ in 0..CALLS {
            stub.call_index(write, &mut write_frame).expect("write");
        }
        let (blocks, bytes) = (allocs() - blocks, alloc_bytes() - bytes);
        assert_eq!((blocks, bytes), (0, 0), "`{server_pdl}`: {CALLS} warm writes");

        let (blocks, bytes) = (allocs(), alloc_bytes());
        for _ in 0..CALLS {
            stub.call_index(read, &mut read_frame).expect("read");
        }
        let (blocks, bytes) = (allocs() - blocks, alloc_bytes() - bytes);
        assert_eq!(
            (blocks, bytes),
            (blocks_per_read * CALLS, blocks_per_read * CALLS * IO as u64),
            "`{server_pdl}`: {CALLS} warm reads of {IO} B"
        );
        assert_eq!(read_frame[1].byte_len(), Some(IO), "the payload arrived");
    }
}

/// A warm `[oneway]` send over kernel IPC allocates nothing: the server's
/// reply marshals into the connection's send window and the reply the
/// client throws away lands in a buffer the transport keeps for it.
#[test]
fn warm_kernel_ipc_oneway_send_allocates_nothing() {
    let (m, pdl) = flexrpc_idl::corba::parse_annotated(
        "notes",
        "interface Notes { oneway void note(in unsigned long x); };",
    )
    .expect("IDL parses");
    let iface = m.interface("Notes").expect("interface");
    let base = InterfacePresentation::default_for(&m, iface).expect("defaults");
    let pres = flexrpc_core::annot::apply_pdl(&m, iface, &base, &pdl).expect("annotations apply");
    let compiled = Arc::new(CompiledInterface::compile(&m, iface, &pres).expect("compiles"));
    let seen = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let mut server = ServerInterface::new_shared(Arc::clone(&compiled), WireFormat::Cdr);
    let counter = Arc::clone(&seen);
    server
        .on("note", move |call| {
            let x = call.u32("x").expect("x") as u64;
            counter.fetch_add(x, std::sync::atomic::Ordering::Relaxed);
            0
        })
        .expect("registers");
    let mut stub = kernel_stub(compiled, server);
    let mut frame = stub.new_frame("note").expect("frame");
    frame[0] = Value::U32(1);
    for _ in 0..16 {
        stub.notify("note", &mut frame).expect("warm-up send");
    }

    let before = allocs();
    for _ in 0..100 {
        stub.notify("note", &mut frame).expect("send");
    }
    let delta = allocs() - before;
    assert_eq!(delta, 0, "100 warm one-way sends allocated {delta} times");
    assert_eq!(seen.load(std::sync::atomic::Ordering::Relaxed), 116, "every send was served");
}

/// A message too short for a fixed opaque field is refused by one bounds
/// check for the whole field, before the field's vector is allocated, on
/// both formats (CDR used to read it octet by octet into a vector it had
/// already reserved).
#[test]
fn truncated_fixed_opaque_fails_before_allocating() {
    use flexrpc_marshal::MarshalError;
    use flexrpc_runtime::wire::{AnyReader, AnyWriter};

    for format in [WireFormat::Xdr, WireFormat::Cdr] {
        let mut w = AnyWriter::new(format);
        w.put_bytes_fixed(&[7u8; 20]);
        let short = w.into_bytes();
        let mut r = AnyReader::new(format, &short).expect("reader");
        let remaining = r.remaining();
        let before = allocs();
        let err = r.get_bytes_fixed_owned(4096).unwrap_err();
        let delta = allocs() - before;
        assert_eq!(delta, 0, "{format:?}: the refused read allocated {delta} times");
        // The error describes the field, not its last octet.
        assert_eq!(err, MarshalError::Truncated { needed: 4096, remaining }, "{format:?}");
    }
}

/// A message that is lost, or whose service fails, comes back as a typed
/// `NetError` value: neither failure allocates on a warm link.
#[test]
fn a_lost_or_failed_link_call_allocates_nothing() {
    use flexrpc_clock::Fault;
    use flexrpc_net::{NetError, SimNet};

    let net = SimNet::new();
    let (client, server) = (net.add_host("client"), net.add_host("server"));
    net.register_handler(server, |request, reply| {
        if request == b"fail" {
            return Err(NetError::ServiceFailure);
        }
        reply.extend_from_slice(request);
        Ok(())
    })
    .expect("serves");
    let mut link = net.link(client, server);
    let mut reply = Vec::new();
    link.call(b"warm", &mut reply).expect("a warm-up call is served");

    let before = allocs();
    let failed = link.call(b"fail", &mut reply);
    let delta = allocs() - before;
    assert_eq!(failed, Err(NetError::ServiceFailure));
    assert_eq!(delta, 0, "a failed call allocated {delta} times");

    net.faults().on_next_call(Fault::Drop);
    let before = allocs();
    let lost = link.call(b"lost", &mut reply);
    let delta = allocs() - before;
    assert_eq!(lost, Err(NetError::Dropped));
    assert_eq!(delta, 0, "a lost call allocated {delta} times");
    assert!(reply.is_empty(), "neither left anything to misread as a reply");
}

/// Hostile bytes cost their refusal nothing: every Sun RPC decoder refuses
/// a malformed frame with a typed label and no allocation — the smallest
/// case of allocation bounded by the input's length.
#[test]
fn malformed_sun_rpc_frames_are_refused_without_allocating() {
    use flexrpc_net::sunrpc::{self, AcceptStat, CallHeader};
    use flexrpc_net::NetError::{self, Malformed};

    let call = sunrpc::encode_call(CallHeader { xid: 7, prog: 1, vers: 1, proc: 0 }, b"args");
    let reply = sunrpc::encode_reply(7, AcceptStat::Success, b"results!");
    let odd = |frame: &[u8]| {
        let mut odd = frame.to_vec();
        odd.push(0xA5);
        let mark = 0x8000_0000 | (odd.len() - 4) as u32;
        odd[..4].copy_from_slice(&mark.to_be_bytes());
        odd
    };
    let (odd_call, odd_reply) = (odd(&call), odd(&reply));
    let mut unknown_stat = reply.clone();
    unknown_stat[24..28].copy_from_slice(&99u32.to_be_bytes());
    let past_end = &call[..call.len() - 4];
    let truncated_mark = &call[..2];

    let as_call = |f: &[u8]| sunrpc::decode_call_tagged(f).map(drop);
    let as_reply = |f: &[u8]| sunrpc::decode_reply(f).map(drop);
    let as_stream = |f: &[u8]| sunrpc::split_records(f).map(drop);
    type Decode<'a> = &'a dyn Fn(&[u8]) -> Result<(), NetError>;
    let refusals: [(Decode<'_>, &[u8], &str); 9] = [
        (&as_call, &odd_call, "record is not a whole number of XDR words"),
        (&as_reply, &odd_reply, "record is not a whole number of XDR words"),
        (&as_call, truncated_mark, "truncated record mark"),
        (&as_reply, truncated_mark, "truncated record mark"),
        (&as_stream, truncated_mark, "truncated record mark in stream"),
        (&as_stream, past_end, "record extends past end of stream"),
        (&as_call, &reply, "expected a call message"),
        (&as_reply, &call, "expected a reply message"),
        (&as_reply, &unknown_stat, "unknown accept status"),
    ];
    for (decode, frame, label) in refusals {
        let before = allocs();
        let refused = decode(frame);
        let delta = allocs() - before;
        assert_eq!(refused, Err(Malformed(label)));
        assert_eq!(delta, 0, "refusing with `{label}` allocated {delta} times");
    }
}
