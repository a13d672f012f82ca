//! Multi-threaded stress tests for the invariants the engine leans on:
//! kernel name-table uniqueness under contention, pipe FIFO ordering
//! through a many-worker engine, no submit wakeup lost between bursts,
//! bind accounting that stays exact when first binds race, blocking calls
//! that all run inline at any worker count, and dispatch tallies that stay
//! exact and monotone while written as per-replica stripes.

use flexrpc_core::ir::fileio_example;
use flexrpc_core::present::{InterfacePresentation, Trust};
use flexrpc_core::value::Value;
use flexrpc_engine::{ClientInfo, Engine, EngineStatsSnapshot};
use flexrpc_kernel::Kernel;
use flexrpc_marshal::WireFormat;
use flexrpc_pipes::circ::CircBuf;
use flexrpc_pipes::server::{
    register_pipe_handlers, server_presentation, PipeServerStats, ReadPresentation,
};
use flexrpc_pipes::{fileio_module, WOULDBLOCK};
use flexrpc_runtime::{CallControl, CallOptions, ClientStub, RpcError, Transport};
use flexrpc_trace::Stage;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

/// Unique-mode name installation stays unique when many threads transfer
/// the same right concurrently: everyone sees one name, the reference
/// count absorbs every transfer, and the name dies only with the last ref.
#[test]
fn name_table_unique_names_survive_contention() {
    const THREADS: usize = 8;
    const TRANSFERS: usize = 100;

    let kernel = Kernel::new();
    let server = kernel.create_task("server", 64).expect("task");
    let client = kernel.create_task("client", 64).expect("task");
    let port = kernel.port_allocate(server).expect("port");

    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let kernel = Arc::clone(&kernel);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                (0..TRANSFERS)
                    .map(|_| kernel.extract_send_right(server, port, client).expect("transfer"))
                    .collect::<Vec<_>>()
            })
        })
        .collect();

    let names: Vec<_> = handles.into_iter().flat_map(|h| h.join().expect("no panics")).collect();
    assert_eq!(names.len(), THREADS * TRANSFERS);
    let first = names[0];
    assert!(names.iter().all(|&n| n == first), "unique mode must reuse one name per (task, port)");
    assert_eq!(kernel.name_count(client), 1);

    // Every transfer added one send reference; releasing them all (from
    // many threads again) must end with the name gone — no double frees,
    // no leaked references.
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let kernel = Arc::clone(&kernel);
            std::thread::spawn(move || {
                for _ in 0..TRANSFERS {
                    kernel.deallocate_right(client, first).expect("release");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no panics");
    }
    assert_eq!(kernel.name_count(client), 0, "last reference removed the name");
    assert!(kernel.deallocate_right(client, first).is_err(), "name is dead");
}

/// Distinct ports transferred concurrently into one task mint distinct
/// names — uniqueness per port never collapses names across ports.
#[test]
fn name_table_distinct_ports_distinct_names() {
    const PORTS: usize = 16;

    let kernel = Kernel::new();
    let server = kernel.create_task("server", 64).expect("task");
    let client = kernel.create_task("client", 64).expect("task");
    let ports: Vec<_> = (0..PORTS).map(|_| kernel.port_allocate(server).expect("port")).collect();

    let barrier = Arc::new(Barrier::new(PORTS));
    let handles: Vec<_> = ports
        .into_iter()
        .map(|port| {
            let kernel = Arc::clone(&kernel);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                // Transfer the same port a few times from this thread too:
                // self-consistency and cross-port uniqueness at once.
                let names: Vec<_> = (0..4)
                    .map(|_| kernel.extract_send_right(server, port, client).expect("transfer"))
                    .collect();
                assert!(names.windows(2).all(|w| w[0] == w[1]));
                names[0]
            })
        })
        .collect();

    let names: Vec<_> = handles.into_iter().map(|h| h.join().expect("ok")).collect();
    let unique: std::collections::HashSet<_> = names.iter().collect();
    assert_eq!(unique.len(), PORTS, "one distinct name per port");
    assert_eq!(kernel.name_count(client), PORTS);
}

fn pipe_engine(workers: usize, cap: usize) -> (Arc<Engine>, Arc<PipeServerStats>) {
    let engine = Engine::builder().workers(workers).queue_depth(workers * 4).build();
    let ring = Arc::new(Mutex::new(CircBuf::new(cap)));
    let stats = Arc::new(PipeServerStats::default());
    let (r, s) = (Arc::clone(&ring), Arc::clone(&stats));
    engine
        .register_service(
            "pipe",
            fileio_module(),
            "FileIO",
            server_presentation(ReadPresentation::Default),
            WireFormat::Cdr,
            move |srv| register_pipe_handlers(srv, &r, &s, ReadPresentation::Default),
        )
        .expect("service registers");
    (engine, stats)
}

fn pipe_client(engine: &Arc<Engine>) -> ClientStub {
    let m = fileio_module();
    let iface = m.interface("FileIO").expect("FileIO exists");
    let pres = InterfacePresentation::default_for(&m, iface).expect("defaults");
    let conn = engine.connect("pipe").client(ClientInfo::of(&pres)).establish().expect("connect");
    let compiled =
        flexrpc_core::program::CompiledInterface::compile(&m, iface, &pres).expect("compiles");
    ClientStub::new(compiled, WireFormat::Cdr, Box::new(conn))
}

fn status_of(r: Result<u32, RpcError>) -> u32 {
    match r {
        Ok(s) => s,
        Err(RpcError::Remote(s)) => s,
        Err(e) => panic!("rpc failed: {e}"),
    }
}

/// Pipe bytes stay FIFO when the server runs on a many-worker engine: a
/// writer streams a strictly increasing sequence while a concurrent reader
/// drains it, and the reader must see the exact same sequence.
#[test]
fn pipe_fifo_order_with_many_workers() {
    const CHUNK: usize = 64;
    const CHUNKS: usize = 400;

    let (engine, _) = pipe_engine(8, 4 * CHUNK);

    let written: Vec<u8> = (0..CHUNKS)
        .flat_map(|i| {
            // Per-chunk header then filler: any reordering or tearing of
            // chunks breaks the reassembled stream.
            let mut c = vec![(i >> 8) as u8, (i & 0xFF) as u8];
            c.resize(CHUNK, (i % 251) as u8);
            c
        })
        .collect();

    let writer = {
        let mut client = pipe_client(&engine);
        let data = written.clone();
        std::thread::spawn(move || {
            for chunk in data.chunks(CHUNK) {
                let mut wf = client.new_frame("write").expect("frame");
                loop {
                    wf[0] = Value::Bytes(chunk.to_vec());
                    match status_of(client.call("write", &mut wf)) {
                        0 => break,
                        WOULDBLOCK => std::thread::yield_now(),
                        s => panic!("write failed: {s}"),
                    }
                }
            }
        })
    };

    let mut client = pipe_client(&engine);
    let mut seen = Vec::with_capacity(written.len());
    while seen.len() < written.len() {
        let mut rf = client.new_frame("read").expect("frame");
        rf[0] = Value::U32(CHUNK as u32);
        match status_of(client.call("read", &mut rf)) {
            0 | WOULDBLOCK => {}
            s => panic!("read failed: {s}"),
        }
        let Value::Bytes(data) = &rf[1] else { panic!("read reply is not bytes") };
        seen.extend_from_slice(data);
        if data.is_empty() {
            std::thread::yield_now();
        }
    }
    writer.join().expect("writer ok");

    assert_eq!(seen, written, "pipe reordered or corrupted the stream");
    assert_eq!(engine.stats().dispatch_errors, 0);
    engine.shutdown();
}

/// A FileIO engine of `workers` workers whose `read` returns `count`
/// bytes, registered as `fileio` under the default presentation.
fn read_engine(workers: usize) -> Arc<Engine> {
    let engine = Engine::builder().workers(workers).build();
    let module = fileio_example();
    let pres =
        InterfacePresentation::default_for(&module, module.interface("FileIO").unwrap()).unwrap();
    engine
        .register_service("fileio", module, "FileIO", pres, WireFormat::Cdr, |srv| {
            srv.on("read", |call| {
                let count = call.u32("count").unwrap() as usize;
                call.set("return", Value::Bytes(vec![0xA5; count])).unwrap();
                0
            })
            .unwrap();
        })
        .unwrap();
    engine
}

/// A CDR `read(count)` request.
fn read_request(count: usize) -> Vec<u8> {
    let mut w = flexrpc_runtime::wire::AnyWriter::new(WireFormat::Cdr);
    w.put_u32(count as u32);
    w.into_bytes()
}

/// Liveness of the claimed worker wakeups: bursts smaller and larger than
/// the worker count land on workers that have all had time to park, over
/// and over. A wake skipped for a worker no earlier push had claimed
/// strands a queued job with everyone asleep, and its ticket never
/// completes. The tickets are redeemed with a deadline wait, which never
/// runs the call on the waiting thread: a plain `wait` would serve its own
/// job whenever a serve token is free — always, with every worker parked —
/// and no wake would be tested. Which push meets which parked worker is
/// timing, so this runs in both profiles (`scripts/ci.sh`).
#[test]
fn bursts_onto_parked_workers_lose_no_wakeup() {
    const ROUNDS: u32 = 2_000;

    let engine = read_engine(4);
    let conns: Vec<_> = (0..3).map(|_| engine.connect("fileio").establish().unwrap()).collect();
    let read = conns[0].program().op("read").unwrap().index;
    let request = read_request(8);

    // The rounds run beside a watchdog: a lost wakeup is a hang, and a hang
    // should fail this test, not the harness's patience.
    let (done_tx, done) = mpsc::channel();
    let rounds = std::thread::spawn(move || {
        let mut seed = 0x2545_F491_4F6C_DD1D_u64;
        for round in 0..ROUNDS {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            let burst = 1 + (seed % 8) as usize;
            let tickets: Vec<_> = (0..burst)
                .map(|i| conns[(round as usize + i) % conns.len()].submit(read, &request, &[]))
                .collect();
            for ticket in tickets {
                ticket.expect("admitted").wait_until(Some(u64::MAX)).expect("served");
            }
            // Long enough for every worker to find the queues empty and park.
            std::thread::sleep(Duration::from_micros(50));
        }
        done_tx.send(()).unwrap();
    });
    done.recv_timeout(Duration::from_secs(120)).expect("a ticket never completed: lost wakeup");
    rounds.join().unwrap();
    let stats = engine.stats();
    assert_eq!(stats.in_flight, 0);
    assert_eq!(stats.calls_helped, 0, "every job was a worker's, woken for it");
    engine.shutdown();
}

/// Bind accounting under concurrency. N threads bind one combination the
/// engine has never seen while M bind another, all traced, all released
/// together: every bind counts exactly one program-cache hit or miss, the
/// two combinations compile once each, and exactly the two binds that
/// compiled carry a `Specialize` span — a bind that waited behind another
/// thread's compile, of its own combination or of the other, records a
/// plain cache hit. Holds in every interleaving, so it is run over fresh
/// engines until the racy ones have surely occurred.
#[test]
fn racing_first_binds_count_one_hit_or_miss_each_and_own_their_compile() {
    const N: usize = 5;
    const M: usize = 4;
    const ROUNDS: usize = 12;

    let m = fileio_module();
    let iface = m.interface("FileIO").expect("FileIO exists");
    let mut one = InterfacePresentation::default_for(&m, iface).expect("defaults");
    one.trust = Trust::Leaky;
    let mut other = one.clone();
    other.trust = Trust::LeakyUnprotected;

    for round in 0..ROUNDS {
        let (engine, _stats) = pipe_engine(2, 64);
        let barrier = Barrier::new(N + M);
        let conns: Vec<_> = std::thread::scope(|s| {
            let binders: Vec<_> = (0..N + M)
                .map(|i| {
                    let pres = if i < N { &one } else { &other };
                    let (engine, barrier) = (&engine, &barrier);
                    s.spawn(move || {
                        barrier.wait();
                        engine
                            .connect("pipe")
                            .client_presentation(pres)
                            .options(CallOptions::default().traced())
                            .establish()
                            .expect("binds")
                    })
                })
                .collect();
            binders.into_iter().map(|b| b.join().expect("no panics")).collect()
        });

        let cache = engine.cache().stats();
        assert_eq!(
            (cache.hits + cache.misses, cache.misses),
            ((N + M) as u64, 2),
            "round {round}: one hit or miss per bind, one miss per combination"
        );
        let spans = |stage: Stage| -> Vec<u64> {
            conns
                .iter()
                .flat_map(|c| c.trace().expect("traced").snapshot())
                .filter(|ev| ev.stage == stage)
                .map(|ev| ev.detail)
                .collect()
        };
        assert_eq!(spans(Stage::Specialize), [1, 1], "round {round}: two binds compiled");
        let binds = spans(Stage::Bind);
        assert_eq!(binds.len(), N + M, "round {round}");
        assert_eq!(binds.iter().sum::<u64>(), 2, "round {round}: compiles credited once each");
        assert_eq!(engine.stats().connections, (N + M) as u64);
        drop(conns);
        engine.shutdown();
    }
}

/// Blocking callers with no deadline and nothing queued run every call
/// inline, on their own threads, whatever the worker count: four clients
/// at once, one worker or four, and no call is served from the queue. A
/// silent fall-back to the queue is what a throughput figure would not show.
#[test]
fn concurrent_blocking_calls_all_run_inline_at_any_worker_count() {
    const CLIENTS: usize = 4;
    const CALLS: usize = 500;

    for workers in [1, 4] {
        let engine = read_engine(workers);
        let start = Barrier::new(CLIENTS);
        std::thread::scope(|s| {
            for _ in 0..CLIENTS {
                s.spawn(|| {
                    let mut conn = engine.connect("fileio").establish().unwrap();
                    let program = conn.program();
                    let read = program.op("read").unwrap();
                    let (request, mut reply, mut rights) = (read_request(16), vec![], vec![]);
                    start.wait();
                    for _ in 0..CALLS {
                        conn.call_with(
                            read,
                            &request,
                            &[],
                            &mut reply,
                            &mut rights,
                            &CallControl::none(),
                        )
                        .expect("served");
                    }
                });
            }
        });

        let offered = (CLIENTS * CALLS) as u64;
        let stats = engine.stats();
        assert_eq!(
            (stats.inline_calls, stats.calls_served),
            (offered, offered),
            "{workers} workers"
        );
        engine.shutdown();
    }
}

/// The dispatch tallies are stripes, one set per replica per pool, written
/// under the replica lock by whoever dispatches. Four blocking callers and
/// a pipelined submitter drive two combinations (two pools) of a two-worker
/// engine while a poller reads `stats()`: no polled tally ever falls, the
/// finals are exactly what was offered, the registry reads what `stats()`
/// reads, and when the engine — and with it every pool and stripe — is
/// dropped under a reader that still holds the registry, nothing counted
/// is lost.
#[test]
fn dispatch_tallies_are_monotone_exact_and_outlive_their_pools() {
    const BLOCKING: usize = 4;
    const CALLS: usize = 8_000;
    const BATCHES: usize = 1_000;
    const BATCH: usize = 8;

    let engine = read_engine(2);
    let module = fileio_example();
    let mut one =
        InterfacePresentation::default_for(&module, module.interface("FileIO").unwrap()).unwrap();
    one.trust = Trust::Leaky;
    let mut other = one.clone();
    other.trust = Trust::LeakyUnprotected;

    let done = AtomicBool::new(false);
    // (calls, request bytes, reply bytes) each driver offered and got back.
    let offered: Vec<(u64, u64, u64)> = std::thread::scope(|s| {
        let (engine, one, other, done) = (&engine, &one, &other, &done);
        let mut drivers: Vec<_> = (0..BLOCKING)
            .map(|i| {
                s.spawn(move || {
                    let pres = if i % 2 == 0 { one } else { other };
                    let mut conn =
                        engine.connect("fileio").client_presentation(pres).establish().unwrap();
                    let program = conn.program();
                    let read = program.op("read").unwrap();
                    let (mut reply, mut rights) = (Vec::new(), Vec::new());
                    let (mut bytes_in, mut bytes_out) = (0, 0);
                    for k in 0..CALLS {
                        let request = read_request((i * 13 + k) % 96);
                        conn.call_with(
                            read,
                            &request,
                            &[],
                            &mut reply,
                            &mut rights,
                            &CallControl::none(),
                        )
                        .expect("served");
                        bytes_in += request.len() as u64;
                        bytes_out += reply.len() as u64;
                    }
                    (CALLS as u64, bytes_in, bytes_out)
                })
            })
            .collect();
        drivers.push(s.spawn(move || {
            let conn = engine.connect("fileio").client_presentation(other).establish().unwrap();
            let read = conn.program().op("read").unwrap().index;
            let (mut bytes_in, mut bytes_out) = (0, 0);
            for batch in 0..BATCHES {
                let tickets: Vec<_> = (0..BATCH)
                    .map(|k| {
                        let request = read_request((batch + k) % 64);
                        bytes_in += request.len() as u64;
                        conn.submit(read, &request, &[]).expect("admitted")
                    })
                    .collect();
                for ticket in tickets {
                    bytes_out += ticket.wait().expect("served").body.len() as u64;
                }
            }
            ((BATCHES * BATCH) as u64, bytes_in, bytes_out)
        }));
        let poller = s.spawn(move || {
            let tallies =
                |s: &EngineStatsSnapshot| [s.calls_served, s.bytes_in, s.bytes_out, s.inline_calls];
            let (mut last, mut polls) = ([0; 4], 0u64);
            while !done.load(Ordering::Acquire) {
                let now = tallies(&engine.stats());
                assert!(now.iter().zip(&last).all(|(n, l)| n >= l), "fell: {last:?} -> {now:?}");
                (last, polls) = (now, polls + 1);
            }
            polls
        });
        let offered = drivers.into_iter().map(|d| d.join().expect("driver finished")).collect();
        done.store(true, Ordering::Release);
        assert!(poller.join().expect("poller saw only rising tallies") > 0);
        offered
    });

    let stats = engine.stats();
    let sum = |f: fn(&(u64, u64, u64)) -> u64| offered.iter().map(f).sum::<u64>();
    assert_eq!(
        (stats.calls_served, stats.bytes_in, stats.bytes_out),
        (sum(|o| o.0), sum(|o| o.1), sum(|o| o.2)),
        "(calls, bytes in, bytes out) served vs offered"
    );
    assert_eq!((stats.dispatch_errors, stats.in_flight), (0, 0));
    assert_eq!(stats.cache.misses, 2, "two combinations, two pools");
    let registry = Arc::clone(engine.metrics());
    let snap = registry.snapshot();
    for (name, value) in stats.named() {
        assert_eq!(snap.counter(name), value, "{name}: registry vs stats()");
    }
    // A call ran inline or was admitted to the queue, and every run
    // recorded its dwell.
    let queued = snap.counter("tenant.0.admitted");
    assert_eq!(stats.inline_calls + queued, stats.calls_served);
    assert!(stats.inline_calls <= (BLOCKING * CALLS) as u64);
    assert_eq!(snap.histogram("engine.dwell_ns").unwrap().count, stats.calls_served);

    // Services cannot be unregistered, so the engine's drop is where pools
    // and their stripes die; the registry outlives them here.
    drop(Arc::try_unwrap(engine).expect("every connection is gone"));
    let after = registry.snapshot();
    for (name, value) in stats.named() {
        assert_eq!(after.counter(name), value, "{name}: dropped stripes fold, they do not vanish");
    }
    assert_eq!(after.histogram("engine.dwell_ns"), snap.histogram("engine.dwell_ns"));
}
