//! The per-layer cost ledger: every layer timed from outside.
//!
//! A layer (= crate) is measured one of three ways, none of which touches
//! the program's source:
//!
//! * **directly** — its public function is called in a timed loop with the
//!   workload's generated inputs ([`time_ns`]);
//! * **by span** — the benchmark's wrappers record spans round calls into
//!   it during the traced rounds (`crate::span`), and a metric is a span's
//!   mean, or the difference between a span and a directly timed part;
//! * **by counter** — public stats getters are sampled before and after the
//!   count pass.
//!
//! A metric whose layer is not on a workload's path reads 0 there: that is
//! the prediction "no change on this workload" made checkable.

use crate::inputs::{Cursor, Inputs};
use crate::reference::{scale, Pacer};
use crate::span::NameTotals;
use crate::workloads::{ReadClient, Workload};
use flexrpc_clock::{FaultInjector, SimClock};
use flexrpc_control::{ControlPlane, WfqQueue};
use flexrpc_core::present::Trust;
use flexrpc_core::program::{CompiledInterface, CompiledOp};
use flexrpc_core::value::Value;
use flexrpc_engine::{ProgramCache, ProgramKey, ReplySlot};
use flexrpc_kernel::ipc::{BindOptions, MsgOut, ServerOptions};
use flexrpc_kernel::regs::MSG_REGS;
use flexrpc_kernel::Kernel;
use flexrpc_marshal::WireFormat;
use flexrpc_net::sunrpc::{self, AcceptStat, CallHeader};
use flexrpc_net::SimNet;
use flexrpc_runtime::interp::{marshal, unmarshal};
use flexrpc_runtime::policy::{CallOptions, CallTag};
use flexrpc_runtime::wire::{AnyReader, AnyWriter};
use flexrpc_runtime::{HookMap, ReplyCache, ServerInterface, TenantId};
use flexrpc_trace::{CallTrace, Counter, Stage, TimeSource};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every per-layer metric: `(name, unit, better)`. `BENCHMARK.json` lists
/// exactly these (a test compares the two).
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("runtime.marshal_request_ns", "ns", "lower"),
    ("runtime.unmarshal_request_ns", "ns", "lower"),
    ("runtime.marshal_reply_ns", "ns", "lower"),
    ("runtime.unmarshal_reply_ns", "ns", "lower"),
    ("runtime.stub_self_ns", "ns", "lower"),
    ("runtime.dispatch_ns", "ns", "lower"),
    ("runtime.handler_ns", "ns", "lower"),
    ("runtime.dispatch_self_ns", "ns", "lower"),
    ("runtime.transport_self_ns", "ns", "lower"),
    ("core.ops_per_call", "count", "lower"),
    ("core.dispatches_per_call", "count", "lower"),
    ("engine.inline_overhead_ns", "ns", "lower"),
    ("engine.inline_frac", "ratio", "higher"),
    ("control.policy_lookup_ns", "ns", "lower"),
    ("clock.fault_check_ns", "ns", "lower"),
    ("trace.counter_inc_ns", "ns", "lower"),
    ("trace.histogram_record_ns", "ns", "lower"),
    ("engine.submit_ns", "ns", "lower"),
    ("engine.wait_ns", "ns", "lower"),
    ("engine.queued_overhead_ns", "ns", "lower"),
    ("engine.peak_in_flight", "count", "lower"),
    ("engine.shed", "count", "lower"),
    ("engine.expired", "count", "lower"),
    ("control.wfq_push_pop_ns", "ns", "lower"),
    ("engine.slot_fill_wait_ns", "ns", "lower"),
    ("net.encode_call_ns", "ns", "lower"),
    ("net.decode_call_ns", "ns", "lower"),
    ("net.encode_reply_ns", "ns", "lower"),
    ("net.decode_reply_ns", "ns", "lower"),
    ("net.simnet_call_ns", "ns", "lower"),
    ("net.sim_wire_ns_per_op", "ns", "lower"),
    ("net.packets_per_op", "count", "lower"),
    ("net.bytes_per_op", "B", "lower"),
    ("runtime.replycache_record_ns", "ns", "lower"),
    ("runtime.replycache_replay_ns", "ns", "lower"),
    ("runtime.replycache_entries", "count", "lower"),
    ("kernel.ipc_call_ns", "ns", "lower"),
    ("kernel.copied_bytes_per_op", "B", "lower"),
    ("kernel.messages_per_op", "count", "lower"),
    ("kernel.name_probes_per_op", "count", "lower"),
    ("kernel.register_ops_per_op", "count", "lower"),
    ("pipes.default_ns_per_rpc", "ns", "lower"),
    ("pipes.dealloc_never_ns_per_rpc", "ns", "lower"),
    ("pipes.dealloc_never_speedup", "ratio", "higher"),
    ("pipes.intermediate_copy_bytes_per_op", "B", "lower"),
    ("pipes.wouldblock_frac", "ratio", "lower"),
    ("idl.corba_parse_ns", "ns", "lower"),
    ("idl.pdl_parse_ns", "ns", "lower"),
    ("core.default_for_ns", "ns", "lower"),
    ("core.apply_pdl_ns", "ns", "lower"),
    ("core.compile_ns", "ns", "lower"),
    ("engine.establish_ns", "ns", "lower"),
    ("engine.cache_hit_ns", "ns", "lower"),
    ("engine.cache_miss_ns", "ns", "lower"),
    ("engine.cache_hit_ratio", "ratio", "higher"),
    ("trace.span_record_ns", "ns", "lower"),
    ("trace.traced_call_overhead_frac", "ratio", "lower"),
    ("bench.trace_overhead_frac", "ratio", "lower"),
    ("bench.clock_read_ns", "ns", "lower"),
    ("bench.round_spread_frac", "ratio", "lower"),
    ("bench.lat_p90_ns", "ns", "lower"),
    ("bench.lat_p99_ns", "ns", "lower"),
    ("bench.lat_p999_ns", "ns", "lower"),
];

/// One traced run's per-layer numbers and the span totals they derive from.
#[derive(Default)]
pub struct Ledger {
    metrics: BTreeMap<&'static str, f64>,
    pub spans: BTreeMap<&'static str, NameTotals>,
    pub pacer: Pacer,
}

impl Ledger {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(PER_LAYER.iter().any(|(n, ..)| *n == name), "`{name}` is not a per-layer metric");
        self.metrics.insert(name, value);
    }

    /// The metric, or 0 when its layer is not on this workload's path.
    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    /// Mean duration of the spans called `name` (0 if none were recorded).
    pub fn span_mean(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, NameTotals::mean_ns)
    }

    /// Times `f` directly and files the result under `name`.
    pub fn time(&mut self, name: &'static str, f: impl FnMut()) {
        let ns = time_ns(&mut self.pacer, f);
        self.set(name, ns);
    }
}

/// Nanoseconds per call of `f` at reference speed: the repetition count
/// is calibrated to ≈2 ms, then 9 rounds run with no clock reads inside a
/// round, each between two reference chunks; the result is the median of
/// the rounds' normalised times.
pub fn time_ns(pacer: &mut Pacer, mut f: impl FnMut()) -> f64 {
    const ROUND: Duration = Duration::from_millis(2);
    let mut reps = 8u64;
    let reps = loop {
        let start = Instant::now();
        for _ in 0..reps {
            f();
        }
        let took = start.elapsed();
        if took >= ROUND / 4 || reps >= 1 << 26 {
            let scale = ROUND.as_secs_f64() / took.as_secs_f64().max(1e-9);
            break ((reps as f64 * scale) as u64).max(1);
        }
        reps *= 4;
    };
    let mut rounds = [0f64; 9];
    let mut before = pacer.tick();
    for round in &mut rounds {
        let start = Instant::now();
        for _ in 0..reps {
            f();
        }
        let took = start.elapsed().as_nanos() as f64 / reps as f64;
        let after = pacer.tick();
        *round = took * scale(before, after);
        before = after;
    }
    crate::measure::median(&mut rounds)
}

/// Cycles through a slice without a modulo in the timed loop.
struct Cycle<'a, T> {
    items: &'a [T],
    cursor: Cursor,
}

impl<'a, T> Cycle<'a, T> {
    fn new(items: &'a [T]) -> Cycle<'a, T> {
        Cycle { items, cursor: Cursor::new(items.len()) }
    }

    #[inline]
    fn next(&mut self) -> &'a T {
        &self.items[self.cursor.advance()]
    }
}

/// The benchmark's own instruments: one clock read, and one of the
/// program's trace records (what ROADMAP item 5 spends per span).
pub fn instrument_layers(ledger: &mut Ledger) {
    ledger.time("bench.clock_read_ns", || {
        black_box(Instant::now());
    });
    let mut trace = CallTrace::new(1024, TimeSource::Disabled);
    let call = trace.begin_call();
    ledger.time("trace.span_record_ns", || {
        trace.record(call, Stage::Marshal, 0, 1, 0);
        black_box(&mut trace);
    });
}

/// What one `read` costs in the stub interpreter and the server dispatch:
/// the op's four programs run through `interp::{marshal,unmarshal}` and the
/// whole server half through `ServerInterface::dispatch`, over the
/// workload's generated sizes.
pub fn runtime_read_layers(
    ledger: &mut Ledger,
    compiled: &Arc<CompiledInterface>,
    format: WireFormat,
    inputs: &Arc<Inputs>,
) {
    // Both ends bind with the default presentation: one compilation holds
    // the client's two programs and the server's two.
    let op = compiled.op("read").expect("read op");
    let hooks = HookMap::new();
    let sizes = &inputs.sizes[..inputs.sizes.len().min(512)];
    let count_slot = op.slots.slot("count").expect("count slot").0;

    program_counts(ledger, &[(op, op)]);

    // Client: marshal the request.
    let mut frame = op.slots.new_frame();
    let mut buf = Vec::new();
    let mut next = Cycle::new(sizes);
    ledger.time("runtime.marshal_request_ns", || {
        frame[count_slot] = Value::U32(*next.next());
        let mut writer = AnyWriter::over(format, std::mem::take(&mut buf));
        marshal(&op.request_marshal, &frame, &[], &mut writer, &hooks, &mut Vec::new())
            .expect("request marshals");
        buf = writer.into_bytes();
        black_box(&buf);
    });

    // Server: unmarshal the request.
    let requests: Vec<Vec<u8>> = sizes
        .iter()
        .map(|&count| crate::workloads::marshal_read_request(compiled, format, count))
        .collect();
    let mut frame = op.slots.new_frame();
    let mut next = Cycle::new(&requests);
    ledger.time("runtime.unmarshal_request_ns", || {
        let request = next.next();
        op.slots.reset_frame(&mut frame);
        let mut reader = AnyReader::new(format, request).expect("request header");
        unmarshal(
            &op.request_unmarshal,
            &mut frame,
            request,
            &mut reader,
            &hooks,
            &mut std::iter::empty(),
        )
        .expect("request unmarshals");
        black_box(&frame);
    });

    // Server: the whole dispatch, through the public entry point, with the
    // same work function the workloads register.
    let mut srv = ServerInterface::new_shared(Arc::clone(compiled), format);
    crate::workloads::register_read(&mut srv, &inputs.payload, None);
    let mut reply = Vec::new();
    let mut rights = Vec::new();
    let mut next = Cycle::new(&requests);
    ledger.time("runtime.dispatch_ns", || {
        srv.dispatch(op.index, next.next(), &[], &mut reply, &mut rights).expect("dispatches");
        black_box(&reply);
    });

    // Server: marshal the reply from frames the work function has filled.
    let return_slot = op.slots.slot("return").expect("return slot").0;
    let frames: Vec<Vec<Value>> = sizes
        .iter()
        .map(|&count| {
            let mut frame = op.slots.new_frame();
            frame[return_slot] = Value::Bytes(inputs.payload[..count as usize].to_vec());
            frame[op.status_slot().0] = Value::U32(0);
            frame
        })
        .collect();
    let mut buf = Vec::new();
    let mut next = Cycle::new(&frames);
    ledger.time("runtime.marshal_reply_ns", || {
        let mut writer = AnyWriter::over(format, std::mem::take(&mut buf));
        marshal(&op.reply_marshal, next.next(), &[], &mut writer, &hooks, &mut Vec::new())
            .expect("reply marshals");
        buf = writer.into_bytes();
        black_box(&buf);
    });

    // Client: unmarshal the reply.
    let replies: Vec<Vec<u8>> = requests
        .iter()
        .map(|request| {
            let mut reply = Vec::new();
            srv.dispatch(op.index, request, &[], &mut reply, &mut rights).expect("dispatches");
            reply
        })
        .collect();
    let mut frame = op.slots.new_frame();
    let mut next = Cycle::new(&replies);
    ledger.time("runtime.unmarshal_reply_ns", || {
        let reply = next.next();
        let mut reader = AnyReader::new(format, reply).expect("reply header");
        unmarshal(
            &op.reply_unmarshal,
            &mut frame,
            reply,
            &mut reader,
            &hooks,
            &mut std::iter::empty(),
        )
        .expect("reply unmarshals");
        black_box(&frame);
    });
}

/// `core.ops_per_call` / `core.dispatches_per_call`: threaded ops and
/// interpreter dispatches summed over the four programs of one call
/// (client half from the client's compilation, server half from the
/// server's), averaged over the given ops. Static counts, no timer.
pub fn program_counts(ledger: &mut Ledger, ops: &[(&CompiledOp, &CompiledOp)]) {
    let (mut threaded, mut dispatches) = (0usize, 0usize);
    for (client, server) in ops {
        let programs = [
            &client.request_marshal,
            &server.request_unmarshal,
            &server.reply_marshal,
            &client.reply_unmarshal,
        ];
        threaded += programs.iter().map(|p| p.ops.len()).sum::<usize>();
        dispatches += programs.iter().map(|p| p.dispatch_count()).sum::<usize>();
    }
    ledger.set("core.ops_per_call", threaded as f64 / ops.len() as f64);
    ledger.set("core.dispatches_per_call", dispatches as f64 / ops.len() as f64);
}

/// What every engine call pays at admission, piece by piece: the control
/// plane's policy + metrics lookup, the fault plan check with nothing
/// armed, and the counter / histogram cells.
pub fn engine_admission_layers(ledger: &mut Ledger, control: &ControlPlane) {
    ledger.time("control.policy_lookup_ns", || {
        black_box(control.policy_for(TenantId::DEFAULT));
        black_box(control.metrics_for(TenantId::DEFAULT));
    });
    let faults = FaultInjector::new();
    ledger.time("clock.fault_check_ns", || {
        black_box(faults.next_call_at(0));
    });
    let counter = Counter::detached();
    ledger.time("trace.counter_inc_ns", || counter.inc());
    let histogram = flexrpc_trace::Histogram::detached();
    let mut value = 0u64;
    ledger.time("trace.histogram_record_ns", || {
        value = value.wrapping_add(97) & 0xFFFF;
        histogram.record(value);
    });
}

/// What the queued path adds per job: a weighted-fair push + pop and a
/// completion slot's construct + fill + wait.
pub fn engine_queue_layers(ledger: &mut Ledger) {
    let queue: WfqQueue<u64> = WfqQueue::new(64);
    ledger.time("control.wfq_push_pop_ns", || {
        let pushed = queue.push(7, TenantId::DEFAULT, 1, None);
        assert!(pushed.is_ok(), "an open, empty queue accepts");
        black_box(queue.pop());
    });
    ledger.time("engine.slot_fill_wait_ns", || {
        let slot = ReplySlot::new();
        slot.fill(7u64);
        black_box(slot.wait());
    });
}

/// Sun RPC framing, the simulated wire, and the at-most-once reply cache,
/// each on its own with the workload's frame sizes.
pub fn net_layers(
    ledger: &mut Ledger,
    compiled: &Arc<CompiledInterface>,
    format: WireFormat,
    inputs: &Arc<Inputs>,
    wire_ns_per_op: u64,
) {
    let sizes = &inputs.sizes[..inputs.sizes.len().min(512)];
    let hdr = CallHeader { xid: 1, prog: 600_001, vers: 1, proc: 0 };
    let tag = Some((1u64, 1u64, 0u64));
    let requests: Vec<Vec<u8>> = sizes
        .iter()
        .map(|&count| crate::workloads::marshal_read_request(compiled, format, count))
        .collect();
    // Reply bodies as the server would marshal them.
    let mut srv = ServerInterface::new_shared(Arc::clone(compiled), format);
    crate::workloads::register_read(&mut srv, &inputs.payload, None);
    let bodies: Vec<Vec<u8>> = requests
        .iter()
        .map(|request| {
            let mut reply = Vec::new();
            srv.dispatch(0, request, &[], &mut reply, &mut Vec::new()).expect("dispatches");
            reply
        })
        .collect();

    let mut next = Cycle::new(&requests);
    ledger.time("net.encode_call_ns", || {
        black_box(sunrpc::encode_call_tagged(hdr, tag, &[next.next()]));
    });
    let calls: Vec<Vec<u8>> =
        requests.iter().map(|r| sunrpc::encode_call_tagged(hdr, tag, &[r])).collect();
    let mut next = Cycle::new(&calls);
    ledger.time("net.decode_call_ns", || {
        black_box(sunrpc::decode_call_tagged(next.next()).expect("call decodes"));
    });
    let mut next = Cycle::new(&bodies);
    ledger.time("net.encode_reply_ns", || {
        black_box(sunrpc::encode_reply(1, AcceptStat::Success, next.next()));
    });
    let replies: Vec<Vec<u8>> =
        bodies.iter().map(|b| sunrpc::encode_reply(1, AcceptStat::Success, b)).collect();
    let mut next = Cycle::new(&replies);
    ledger.time("net.decode_reply_ns", || {
        black_box(sunrpc::decode_reply(next.next()).expect("reply decodes"));
    });

    // The wire alone: an echo service that answers each call frame with
    // the reply frame the real server would send for it.
    let net = SimNet::new();
    let from = net.add_host("client");
    let to = net.add_host("echo");
    let echo = replies.clone();
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    net.register_service(to, move |_| {
        let at = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed) % echo.len();
        Ok(echo[at].clone())
    })
    .expect("echo registers");
    let mut reply = Vec::new();
    let mut next = Cycle::new(&calls);
    ledger.time("net.simnet_call_ns", || {
        net.call(from, to, next.next(), &mut reply).expect("wire call");
        black_box(&reply);
    });

    // The reply cache in the workload's steady state: the clock advances by
    // one op's wire time per record, so the TTL keeps as many entries live
    // (and each record sweeps as many) as in the workload itself.
    let clock = SimClock::new();
    let cache = ReplyCache::new(Arc::clone(&clock), Duration::from_secs(1));
    let mut seq = 0u64;
    let mut next = Cycle::new(&bodies);
    let mut record = || {
        clock.advance_ns(wire_ns_per_op);
        cache.record(CallTag::new(1, seq), next.next(), &[]);
        seq += 1;
    };
    for _ in 0..2_000 {
        record();
    }
    ledger.time("runtime.replycache_record_ns", record);
    let last = CallTag::new(1, seq - 1);
    let (mut reply, mut rights) = (Vec::new(), Vec::new());
    ledger.time("runtime.replycache_replay_ns", || {
        assert!(cache.replay(last, &mut reply, &mut rights), "a live entry replays");
        black_box(&reply);
    });
}

/// One streamlined kernel IPC round trip with a 4 KiB body and a server
/// that does nothing: the transport floor under `pipe_ipc_bulk`.
pub fn kernel_layers(ledger: &mut Ledger) {
    let kernel = Kernel::new();
    let client = kernel.create_task("client", 64 * 1024).expect("task");
    let server = kernel.create_task("server", 64 * 1024).expect("task");
    let port = kernel.port_allocate(server).expect("port");
    kernel
        .register_server(server, port, ServerOptions::default(), |_, msg| {
            Ok(MsgOut { regs: msg.regs, body: Vec::new(), rights: Vec::new() })
        })
        .expect("server registers");
    let send = kernel.extract_send_right(server, port, client).expect("send right");
    let conn = kernel.ipc_bind(client, send, BindOptions::default()).expect("binds");
    let body = vec![0xA5u8; 4096];
    let mut reply = Vec::new();
    ledger.time("kernel.ipc_call_ns", || {
        black_box(
            kernel.ipc_call_into(&conn, [0; MSG_REGS], &body, &[], &mut reply).expect("ipc call"),
        );
    });
}

/// The program cache on its own: a hit, and a miss that compiles FileIO
/// and publishes it (fresh cache every 6 misses, as `bind_churn` holds at
/// most 6 combinations).
pub fn cache_layers(ledger: &mut Ledger) {
    let module = flexrpc_pipes::fileio_module();
    let iface = module.interface("FileIO").expect("FileIO exists");
    let pres = flexrpc_core::present::InterfacePresentation::default_for(&module, iface)
        .expect("defaults");
    let key = |i: u64| ProgramKey {
        signature: 0xF11E,
        server_presentation: 1,
        client_presentation: i,
        server_trust: Trust::None,
        client_trust: Trust::None,
        format: WireFormat::Cdr,
    };
    let compile = || CompiledInterface::compile(&module, iface, &pres);
    let cache = ProgramCache::new();
    for i in 0..6 {
        cache.get_or_compile(key(i), compile).expect("compiles");
    }
    let mut i = 0u64;
    ledger.time("engine.cache_hit_ns", || {
        i = (i + 1) % 6;
        black_box(cache.get_or_compile(key(i), compile).expect("hits"));
    });
    let mut cache = ProgramCache::new();
    let mut i = 0u64;
    ledger.time("engine.cache_miss_ns", || {
        if i == 6 {
            cache = ProgramCache::new();
            i = 0;
        }
        black_box(cache.get_or_compile(key(i), compile).expect("compiles"));
        i += 1;
    });
}

/// A stub-driven workload: its calls go through one [`ReadClient`].
pub trait HasReadClient: Workload {
    fn read_client(&mut self) -> &mut ReadClient;
}

/// `trace.traced_call_overhead_frac`: the workload's own op under
/// `CallOptions::traced()` against the same op under default options, in
/// paired rounds on two worlds — what the program's built-in tracing costs
/// a caller who switches it on.
pub fn traced_call_overhead<W: HasReadClient>(ledger: &mut Ledger, inputs: &Arc<Inputs>) {
    const UNITS: u64 = 4_000;
    let mut plain = W::build(inputs, None);
    plain.read_client().set_options(CallOptions::default());
    let mut traced = W::build(inputs, None);
    traced.read_client().set_options(CallOptions::default().traced());
    let round = |world: &mut W| {
        let start = Instant::now();
        for _ in 0..UNITS {
            black_box(world.unit(false));
        }
        start.elapsed().as_secs_f64()
    };
    round(&mut plain);
    round(&mut traced);
    let mut ratios = [0f64; 9];
    let mut before = ledger.pacer.tick();
    for ratio in &mut ratios {
        let bare = round(&mut plain);
        let between = ledger.pacer.tick();
        let with_trace = round(&mut traced);
        let after = ledger.pacer.tick();
        *ratio = (with_trace * scale(between, after)) / (bare * scale(before, between)).max(1e-12);
        before = after;
    }
    ledger.set("trace.traced_call_overhead_frac", crate::measure::median(&mut ratios) - 1.0);
}

/// The span-derived metrics of a stub-driven workload. `stub.call` ⊃
/// `transport.call` ⊃ `handler`; the directly timed `runtime.dispatch_ns`
/// splits off the server half.
pub fn stub_span_layers(ledger: &mut Ledger) {
    let stub = ledger.span_mean("stub.call");
    let transport = ledger.span_mean("transport.call");
    let handler = ledger.span_mean("handler");
    ledger.set("runtime.stub_self_ns", (stub - transport).max(0.0));
    ledger.set("runtime.handler_ns", handler);
    ledger.set("runtime.dispatch_self_ns", (ledger.get("runtime.dispatch_ns") - handler).max(0.0));
}

/// What the transport adds round the dispatch it carries.
fn transport_overhead(ledger: &Ledger) -> f64 {
    (ledger.span_mean("transport.call") - ledger.get("runtime.dispatch_ns")).max(0.0)
}

/// Files the transport's overhead under the runtime: the transport is one
/// of its own (`Loopback`, `SunRpc`).
pub fn runtime_transport_span_layer(ledger: &mut Ledger) {
    ledger.set("runtime.transport_self_ns", transport_overhead(ledger));
}

/// Files the transport's overhead under the engine: the transport is an
/// `EngineConnection` dispatching inline.
pub fn engine_transport_span_layer(ledger: &mut Ledger) {
    ledger.set("engine.inline_overhead_ns", transport_overhead(ledger));
}

/// The bulk variants of the interpreter metrics, for `pipe_ipc_bulk`: one
/// `write` and one `read` of `io_size` bytes, client programs from the
/// client's compilation and server programs from the pipe server's; each
/// metric is the mean of the two ops. `runtime.dispatch_ns` dispatches
/// write-then-read into a real pipe server, so the pipe never fills.
pub fn runtime_bulk_layers(
    ledger: &mut Ledger,
    client: &CompiledInterface,
    server: &CompiledInterface,
    format: WireFormat,
    io_size: usize,
    pipe_cap: usize,
) {
    let hooks = HookMap::new();
    let (c_read, s_read) = (client.op("read").expect("read"), server.op("read").expect("read"));
    let (c_write, s_write) =
        (client.op("write").expect("write"), server.op("write").expect("write"));
    program_counts(ledger, &[(c_read, s_read), (c_write, s_write)]);

    let chunk: Arc<[u8]> = vec![0xA5u8; io_size].into();
    let mut read_frame = c_read.slots.new_frame();
    read_frame[c_read.slots.slot("count").expect("count slot").0] = Value::U32(io_size as u32);
    let mut write_frame = c_write.slots.new_frame();
    write_frame[c_write.slots.slot("data").expect("data slot").0] =
        Value::Shared(Arc::clone(&chunk));

    let put = |program, frame: &[Value], buf: &mut Vec<u8>| {
        let mut writer = AnyWriter::over(format, std::mem::take(buf));
        marshal(program, frame, &[], &mut writer, &hooks, &mut Vec::new()).expect("marshals");
        *buf = writer.into_bytes();
    };
    let get = |program, frame: &mut Vec<Value>, msg: &[u8]| {
        let mut reader = AnyReader::new(format, msg).expect("header");
        unmarshal(program, frame, msg, &mut reader, &hooks, &mut std::iter::empty())
            .expect("unmarshals");
    };

    let (mut read_req, mut write_req) = (Vec::new(), Vec::new());
    ledger.time("runtime.marshal_request_ns", || {
        put(&c_read.request_marshal, &read_frame, &mut read_req);
        put(&c_write.request_marshal, &write_frame, &mut write_req);
        black_box((&read_req, &write_req));
    });
    halve(ledger, "runtime.marshal_request_ns");

    let (mut s_read_frame, mut s_write_frame) =
        (s_read.slots.new_frame(), s_write.slots.new_frame());
    ledger.time("runtime.unmarshal_request_ns", || {
        s_read.slots.reset_frame(&mut s_read_frame);
        get(&s_read.request_unmarshal, &mut s_read_frame, &read_req);
        s_write.slots.reset_frame(&mut s_write_frame);
        get(&s_write.request_unmarshal, &mut s_write_frame, &write_req);
        black_box((&s_read_frame, &s_write_frame));
    });
    halve(ledger, "runtime.unmarshal_request_ns");

    let (pipe, _) = flexrpc_pipes::server::build_pipe_server(
        pipe_cap,
        flexrpc_pipes::server::ReadPresentation::Default,
        format,
    );
    let (mut read_reply, mut write_reply, mut rights) = (Vec::new(), Vec::new(), Vec::new());
    ledger.time("runtime.dispatch_ns", || {
        let mut pipe = pipe.lock();
        pipe.dispatch(s_write.index, &write_req, &[], &mut write_reply, &mut rights)
            .expect("write dispatches");
        pipe.dispatch(s_read.index, &read_req, &[], &mut read_reply, &mut rights)
            .expect("read dispatches");
        black_box((&read_reply, &write_reply));
    });
    halve(ledger, "runtime.dispatch_ns");

    s_read.slots.reset_frame(&mut s_read_frame);
    s_read_frame[s_read.slots.slot("return").expect("return slot").0] =
        Value::Bytes(chunk.to_vec());
    s_read_frame[s_read.status_slot().0] = Value::U32(0);
    s_write.slots.reset_frame(&mut s_write_frame);
    s_write_frame[s_write.status_slot().0] = Value::U32(0);
    let (mut read_out, mut write_out) = (Vec::new(), Vec::new());
    ledger.time("runtime.marshal_reply_ns", || {
        put(&s_read.reply_marshal, &s_read_frame, &mut read_out);
        put(&s_write.reply_marshal, &s_write_frame, &mut write_out);
        black_box((&read_out, &write_out));
    });
    halve(ledger, "runtime.marshal_reply_ns");

    ledger.time("runtime.unmarshal_reply_ns", || {
        get(&c_read.reply_unmarshal, &mut read_frame, &read_reply);
        get(&c_write.reply_unmarshal, &mut write_frame, &write_reply);
        black_box((&read_frame, &write_frame));
    });
    halve(ledger, "runtime.unmarshal_reply_ns");
}

/// A loop body that ran one write and one read reports their mean.
fn halve(ledger: &mut Ledger, name: &'static str) {
    ledger.set(name, ledger.get(name) / 2.0);
}
