//! Failure-model acceptance: crash faults, the at-most-once reply cache,
//! circuit breaking, and supervisor failover — all on deterministic sim
//! time.
//!
//! The headline scenarios the PR must pin:
//!
//! * A *non-idempotent* operation retried after an injected crash executes
//!   its handler exactly once (the engine's reply cache answers the
//!   resend).
//! * A same-domain client whose serving engine crashes completes its call
//!   by failing over to a Sun RPC standby — a rebind with renegotiated
//!   presentation, whose combination signature proves the stub program was
//!   reusable.

use flexrpc::clock::Fault;
use flexrpc::core::sig::WireSignature;
use flexrpc::net::{NetConfig, SimNet};
use flexrpc::prelude::*;
use flexrpc::runtime::transport::{serve_on_net, SunRpc};
use flexrpc::runtime::{RetryPolicy, Supervisor};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

fn counter_module() -> flexrpc::core::ir::Module {
    corba::parse(
        "counter",
        r#"
        interface Counter {
            unsigned long add(in unsigned long x);
        };
        "#,
    )
    .expect("IDL parses")
}

fn presentation(m: &flexrpc::core::ir::Module) -> InterfacePresentation {
    let iface = m.interface("Counter").expect("declared");
    InterfacePresentation::default_for(m, iface).expect("defaults")
}

fn compiled(m: &flexrpc::core::ir::Module) -> CompiledInterface {
    let iface = m.interface("Counter").expect("declared");
    CompiledInterface::compile(m, iface, &presentation(m)).expect("compiles")
}

fn retrying() -> CallOptions {
    CallOptions::default().retry(RetryPolicy::new(3).backoff(Duration::from_millis(1)).seed(3))
}

/// Registers the (deliberately non-idempotent) counter service on an
/// engine; `executions` counts handler runs, `total` is the mutated state.
fn register_counter(engine: &Arc<Engine>, executions: Arc<AtomicU64>, total: Arc<AtomicU64>) {
    let m = counter_module();
    let pres = presentation(&m);
    engine
        .register_service("counter", m, "Counter", pres, WireFormat::Cdr, move |srv| {
            let (ex, tot) = (Arc::clone(&executions), Arc::clone(&total));
            srv.on("add", move |call| {
                ex.fetch_add(1, Ordering::SeqCst);
                let x = call.u32("x").expect("x") as u64;
                let new = tot.fetch_add(x, Ordering::SeqCst) + x;
                call.set("return", Value::U32(new as u32)).expect("return");
                0
            })
            .expect("registers");
        })
        .expect("service registers");
}

fn add(stub: &mut ClientStub, x: u32, opts: &CallOptions) -> Result<u32, RpcError> {
    let mut frame = stub.new_frame("add").expect("frame");
    frame[0] = Value::U32(x);
    stub.call_with("add", &mut frame, opts)?;
    Ok(frame[1].as_u32().expect("return"))
}

/// ISSUE acceptance #1: crash the connection after the engine executed a
/// non-idempotent call; the tagged retry must be answered from the
/// engine's reply cache — exactly one execution, at least one suppression.
#[test]
fn non_idempotent_retry_after_crash_executes_exactly_once() {
    let engine = Engine::builder().workers(2).at_most_once(Duration::from_secs(1)).build();
    let executions = Arc::new(AtomicU64::new(0));
    let total = Arc::new(AtomicU64::new(0));
    register_counter(&engine, Arc::clone(&executions), Arc::clone(&total));

    let conn = engine.connect("counter").establish().expect("connects");
    let m = counter_module();
    let mut stub = ClientStub::new(compiled(&m), WireFormat::Cdr, Box::new(conn));
    stub.enable_at_most_once();

    // The reply is lost after execution: the engine runs (and caches) the
    // call, then the connection dies before the reply returns.
    engine.faults().on_next_call(Fault::Close);
    let result = add(&mut stub, 5, &retrying()).expect("retry recovered through the cache");
    assert_eq!(result, 5);
    assert_eq!(executions.load(Ordering::SeqCst), 1, "handler ran exactly once");
    assert_eq!(total.load(Ordering::SeqCst), 5, "state mutated exactly once");
    let cache = engine.reply_cache().expect("amo enabled").stats();
    assert_eq!(cache.executions, 1);
    assert!(cache.suppressions >= 1, "the resend was a cache hit");
    let stats = engine.stats();
    assert_eq!(stats.reply_cache, cache, "cache counters surface in engine stats");
    engine.shutdown();
}

/// Duplicated delivery through the engine queue under at-most-once: the
/// shadow job records, the real job replays — one execution.
#[test]
fn duplicated_engine_delivery_executes_once() {
    let engine = Engine::builder().workers(2).at_most_once(Duration::from_secs(1)).build();
    let executions = Arc::new(AtomicU64::new(0));
    register_counter(&engine, Arc::clone(&executions), Arc::new(AtomicU64::new(0)));

    let conn = engine.connect("counter").establish().expect("connects");
    let m = counter_module();
    let mut stub = ClientStub::new(compiled(&m), WireFormat::Cdr, Box::new(conn));
    stub.enable_at_most_once();

    engine.faults().on_next_call(Fault::Duplicate);
    assert_eq!(add(&mut stub, 7, &retrying()).expect("call succeeds"), 7);
    assert_eq!(executions.load(Ordering::SeqCst), 1, "duplicate suppressed by the cache");
    assert_eq!(engine.reply_cache().expect("amo").stats().suppressions, 1);
    engine.shutdown();
}

/// The same, with the race forced: the shadow is held mid-handler while
/// the second worker is free to pop the real half of the delivery. The
/// real half must wait for the shadow to record, not run beside it.
#[test]
fn stolen_duplicate_waits_for_its_shadow() {
    let engine = Engine::builder().workers(2).at_most_once(Duration::from_secs(1)).build();
    let executions = Arc::new(AtomicU64::new(0));
    let (entered_tx, entered) = std::sync::mpsc::channel();
    let (release, release_rx) = std::sync::mpsc::channel::<()>();
    let release_rx = Arc::new(Mutex::new(release_rx));
    let m = counter_module();
    let ex = Arc::clone(&executions);
    engine
        .register_service("counter", m.clone(), "Counter", presentation(&m), WireFormat::Cdr, {
            move |srv| {
                let (ex, entered, release) =
                    (Arc::clone(&ex), entered_tx.clone(), Arc::clone(&release_rx));
                srv.on("add", move |call| {
                    if ex.fetch_add(1, Ordering::SeqCst) == 0 {
                        entered.send(()).expect("test listens");
                        release.lock().recv().expect("test releases");
                    }
                    let x = call.u32("x").expect("x");
                    call.set("return", Value::U32(x)).expect("return");
                    0
                })
                .expect("registers");
            }
        })
        .expect("service registers");

    let conn = engine.connect("counter").establish().expect("connects");
    let mut stub = ClientStub::new(compiled(&m), WireFormat::Cdr, Box::new(conn));
    stub.enable_at_most_once();
    engine.faults().on_next_call(Fault::Duplicate);
    let caller = std::thread::spawn(move || add(&mut stub, 7, &retrying()));

    entered.recv().expect("the shadow reaches the handler");
    // The idle worker has the real half within microseconds; give it far
    // longer than that to (wrongly) run the handler a second time.
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(executions.load(Ordering::SeqCst), 1, "the real half ran beside its shadow");
    release.send(()).expect("handler waits");
    assert_eq!(caller.join().expect("caller thread").expect("call succeeds"), 7);
    assert_eq!(executions.load(Ordering::SeqCst), 1, "duplicate suppressed by the cache");
    engine.shutdown();
}

/// ISSUE acceptance #2: a same-domain client whose engine crashes fails
/// over to a Sun RPC standby, renegotiating the presentation against the
/// new endpoint. The combination signatures of the two bindings match —
/// the paper's cheap-to-compare token proving the standby could reuse the
/// primary's compiled stub program outright.
#[test]
fn samedomain_crash_fails_over_to_sunrpc_standby() {
    let m = counter_module();
    let pres = presentation(&m);

    // One sim clock for the whole world, so the supervisor's recovery
    // latency is measured coherently across the two transports.
    let clock = SimClock::new();
    let net = SimNet::with_clock(NetConfig::default(), Arc::clone(&clock));
    let client_host = net.add_host("client");
    let standby_host = net.add_host("standby");

    // Primary: a same-domain serving engine.
    let engine = Engine::builder().workers(2).clock(Arc::clone(&clock)).build();
    let executions = Arc::new(AtomicU64::new(0));
    let total = Arc::new(AtomicU64::new(0));
    register_counter(&engine, Arc::clone(&executions), Arc::clone(&total));

    // Standby: the same contract served over Sun RPC on the simulated net,
    // sharing the primary's application state (a replicated server).
    let standby = {
        let mut srv = ServerInterface::new(compiled(&m), WireFormat::Cdr);
        let (ex, tot) = (Arc::clone(&executions), Arc::clone(&total));
        srv.on("add", move |call| {
            ex.fetch_add(1, Ordering::SeqCst);
            let x = call.u32("x").expect("x") as u64;
            let new = tot.fetch_add(x, Ordering::SeqCst) + x;
            call.set("return", Value::U32(new as u32)).expect("return");
            0
        })
        .expect("registers");
        Arc::new(Mutex::new(srv))
    };
    serve_on_net(&net, standby_host, standby, 300_001, 1).expect("standby serves");

    let eng = Arc::clone(&engine);
    let (m1, m2) = (counter_module(), counter_module());
    let (net2, c2) = (Arc::clone(&net), client_host);
    let mut sup = Supervisor::builder()
        .endpoint(move || {
            let conn = eng.connect("counter").establish()?;
            Ok(ClientStub::new(compiled(&m1), WireFormat::Cdr, Box::new(conn)))
        })
        .endpoint(move || {
            let t = SunRpc::new(Arc::clone(&net2), c2, standby_host, 300_001, 1);
            Ok(ClientStub::new(compiled(&m2), WireFormat::Cdr, Box::new(t)))
        })
        .connect()
        .expect("primary binds");
    assert_eq!(sup.current_endpoint(), 0);

    // A healthy call on the primary.
    let mut frame = sup.new_frame("add").expect("frame");
    frame[0] = Value::U32(1);
    sup.call_with("add", &mut frame, &CallOptions::default()).expect("primary serves");
    assert_eq!(frame[1].as_u32().expect("return"), 1);

    // The engine process crashes for good; the next call must complete via
    // the standby. `add` never declared `[idempotent]`, so the replay
    // license comes from at-most-once tagging.
    sup.stub_mut().enable_at_most_once();
    engine.faults().on_next_call(Fault::Crash { restart_after_ns: None });
    let mut frame = sup.new_frame("add").expect("frame");
    frame[0] = Value::U32(2);
    sup.call_with("add", &mut frame, &CallOptions::default()).expect("failover completes");
    assert_eq!(frame[1].as_u32().expect("return"), 3, "standby sees the replicated state");
    assert_eq!(sup.current_endpoint(), 1, "now bound to the Sun RPC standby");
    assert_eq!(executions.load(Ordering::SeqCst), 2, "the crashed call never executed twice");

    let stats = sup.stats();
    assert_eq!(stats.disconnects, 1);
    assert_eq!(stats.rebinds, 2, "initial bind plus the failover rebind");
    assert_eq!(stats.replays, 1);
    assert!(stats.recovery_ns_last > 0, "wire time of the replay was charged to the clock");

    // Renegotiated presentation, same combination: the standby binding's
    // combination signature equals the primary's, so the shared program
    // cache would serve the rebind without recompiling.
    let iface = m.interface("Counter").expect("declared");
    let sig = WireSignature::of_interface(&m, iface).expect("signature");
    let fp = pres.fingerprint();
    let primary_combo = sig.combination(fp, fp);
    let standby_combo = sig.combination(pres.fingerprint(), pres.fingerprint());
    assert_eq!(primary_combo, standby_combo, "rebind reuses the compiled stub program");

    // Calls keep flowing on the adopted binding.
    let mut frame = sup.new_frame("add").expect("frame");
    frame[0] = Value::U32(4);
    sup.call_with("add", &mut frame, &CallOptions::default()).expect("standby keeps serving");
    assert_eq!(frame[1].as_u32().expect("return"), 7);
    engine.shutdown();
}

/// A crashed primary that *restarts* is retried on rebind with the same
/// tag: its still-warm reply cache suppresses the replay when the original
/// call had executed (Close), so even a crash-during-reply costs exactly
/// one execution.
#[test]
fn restarted_primary_suppresses_the_replayed_call() {
    let engine = Engine::builder().workers(2).at_most_once(Duration::from_secs(5)).build();
    let executions = Arc::new(AtomicU64::new(0));
    let total = Arc::new(AtomicU64::new(0));
    register_counter(&engine, Arc::clone(&executions), Arc::clone(&total));

    let eng = Arc::clone(&engine);
    let mut sup = Supervisor::builder()
        .endpoint(move || {
            let conn = eng.connect("counter").establish()?;
            Ok(ClientStub::new(compiled(&counter_module()), WireFormat::Cdr, Box::new(conn)))
        })
        .connect()
        .expect("binds");
    sup.stub_mut().enable_at_most_once();

    // The engine executes the call, then the connection closes before the
    // reply; the stub has no retry policy, so the disconnect reaches the
    // supervisor, which rebinds (to the same, still-running engine) and
    // replays with the original tag.
    engine.faults().on_next_call(Fault::Close);
    let mut frame = sup.new_frame("add").expect("frame");
    frame[0] = Value::U32(9);
    sup.call_with("add", &mut frame, &CallOptions::default()).expect("replay recovers");
    assert_eq!(frame[1].as_u32().expect("return"), 9);
    assert_eq!(executions.load(Ordering::SeqCst), 1, "the replay was a cache hit");
    assert_eq!(engine.reply_cache().expect("amo").stats().suppressions, 1);
    engine.shutdown();
}

/// Circuit breaker through the engine: consecutive dispatch failures trip
/// it, tripped admission reads as a disconnect (so supervised clients fail
/// over), and after the sim-time cooldown one probe closes it again.
#[test]
fn breaker_trips_probes_and_recovers_on_sim_time() {
    let engine = Engine::builder()
        .workers(1)
        .policy(Policy::new().breaker(3, Duration::from_millis(1)))
        .build();
    let executions = Arc::new(AtomicU64::new(0));
    register_counter(&engine, Arc::clone(&executions), Arc::new(AtomicU64::new(0)));
    let conn = engine.connect("counter").establish().expect("connects");

    // Three garbage requests: each dispatch fails, tripping the breaker.
    for _ in 0..3 {
        let err = conn.submit(0, &[0xFF], &[]).expect("admitted").wait();
        assert!(err.is_err(), "garbage cannot dispatch");
    }
    let stats = engine.stats();
    assert_eq!(stats.breaker.trips, 1, "three consecutive failures tripped");
    assert!(stats.breaker.open);

    // While open, admission is refused with a disconnect-class error.
    let m = counter_module();
    let conn2 = engine.connect("counter").establish().expect("combination still cached");
    let mut stub = ClientStub::new(compiled(&m), WireFormat::Cdr, Box::new(conn2));
    let err = add(&mut stub, 1, &CallOptions::default()).expect_err("refused while open");
    assert_eq!(err.kind(), ErrorKind::Disconnected, "{err}");
    assert_eq!(executions.load(Ordering::SeqCst), 0, "nothing reached a handler while open");

    // Cooldown passes on the sim clock; the next call is the probe, it
    // succeeds, and the breaker closes.
    engine.clock().advance_ns(2_000_000);
    assert_eq!(add(&mut stub, 2, &CallOptions::default()).expect("probe succeeds"), 2);
    let stats = engine.stats();
    assert_eq!(stats.breaker.probes, 1);
    assert_eq!(stats.breaker.recoveries, 1);
    assert!(!stats.breaker.open, "recovered");
    assert_eq!(add(&mut stub, 3, &CallOptions::default()).expect("healthy again"), 5);
    engine.shutdown();
}

/// Satellite (a): both Sun RPC paths — the single-call transport and the
/// pipelined record stream — consult the *same* per-net fault injector,
/// exactly once per transmission, and an induced duplicate runs the
/// handler for every delivered copy (at-least-once without a cache).
#[test]
fn both_sunrpc_paths_consult_one_injector() {
    let m = counter_module();
    let pres = presentation(&m);
    let net = SimNet::new();
    let client_host = net.add_host("client");
    let single_host = net.add_host("single");
    let pipe_host = net.add_host("pipelined");
    let executions = Arc::new(AtomicU64::new(0));

    // Path 1: plain serve_on_net + SunRpc transport.
    let server = {
        let mut srv = ServerInterface::new(compiled(&m), WireFormat::Cdr);
        let ex = Arc::clone(&executions);
        srv.on("add", move |call| {
            ex.fetch_add(1, Ordering::SeqCst);
            let x = call.u32("x").expect("x");
            call.set("return", Value::U32(x)).expect("return");
            0
        })
        .expect("registers");
        Arc::new(Mutex::new(srv))
    };
    serve_on_net(&net, single_host, server, 400_001, 1).expect("serves");

    let t = SunRpc::new(Arc::clone(&net), client_host, single_host, 400_001, 1);
    let mut stub = ClientStub::new(compiled(&m), WireFormat::Cdr, Box::new(t));
    net.faults().on_next_call(Fault::Duplicate);
    let sent_before = net.stats().messages.get();
    let mut frame = stub.new_frame("add").expect("frame");
    frame[0] = Value::U32(1);
    stub.call("add", &mut frame).expect("call survives duplication");
    assert_eq!(net.stats().messages.get() - sent_before, 1, "one transmission per call");
    assert_eq!(executions.load(Ordering::SeqCst), 2, "both delivered copies executed");

    // Path 2: engine acceptor + pipelined record stream. The whole batch
    // is one transmission: one injector consult, every record in the
    // duplicated stream re-executed.
    let engine = Engine::builder().workers(2).clock(Arc::clone(net.clock())).build();
    let pipe_executions = Arc::new(AtomicU64::new(0));
    {
        let ex = Arc::clone(&pipe_executions);
        engine
            .register_service(
                "counter",
                counter_module(),
                "Counter",
                pres.clone(),
                WireFormat::Cdr,
                move |srv| {
                    let ex = Arc::clone(&ex);
                    srv.on("add", move |call| {
                        ex.fetch_add(1, Ordering::SeqCst);
                        let x = call.u32("x").expect("x");
                        call.set("return", Value::U32(x)).expect("return");
                        0
                    })
                    .expect("registers");
                },
            )
            .expect("service registers");
    }
    flexrpc::engine::expose_on_net(
        &engine,
        &net,
        pipe_host,
        "counter",
        400_002,
        1,
        ClientInfo::of(&pres),
    )
    .expect("exposes");

    let mut w = flexrpc::runtime::wire::AnyWriter::new(WireFormat::Cdr);
    w.put_u32(2);
    let args = w.into_bytes();
    let mut pipe =
        flexrpc::engine::SunRpcPipeline::new(Arc::clone(&net), client_host, pipe_host, 400_002, 1);
    pipe.submit(0, &args);
    pipe.submit(0, &args);
    net.faults().on_next_call(Fault::Duplicate);
    let sent_before = net.stats().messages.get();
    let replies = pipe.flush().expect("pipelined flush survives duplication");
    assert_eq!(replies.len(), 2);
    assert_eq!(net.stats().messages.get() - sent_before, 1, "one transmission for the batch");
    assert_eq!(
        pipe_executions.load(Ordering::SeqCst),
        4,
        "both records of the duplicated stream executed"
    );
    engine.shutdown();
}

/// Runs the cross-server duplicate-window scenario: replica-1 executes a
/// non-idempotent call and loses the reply stream (`Close`), the
/// supervisor fails over to replica-2 and replays with the original tag.
/// Returns (handler executions, mutated total, replayed return value).
fn lost_reply_fails_over_to_second_replica(share_cache: bool) -> (u64, u64, u32) {
    let m = counter_module();
    let pres = presentation(&m);
    let net = SimNet::new();
    let client_host = net.add_host("client");
    let r1 = net.add_host("replica-1");
    let r2 = net.add_host("replica-2");

    // Both replicas apply ops to the same replicated state machine.
    let executions = Arc::new(AtomicU64::new(0));
    let total = Arc::new(AtomicU64::new(0));
    let shared = flexrpc::runtime::ReplyCache::new(Arc::clone(net.clock()), Duration::from_secs(5));
    let mut engines = Vec::new();
    for host in [r1, r2] {
        let builder = Engine::builder().workers(1).clock(Arc::clone(net.clock()));
        let builder = if share_cache {
            builder.shared_reply_cache(Arc::clone(&shared))
        } else {
            builder.at_most_once(Duration::from_secs(5))
        };
        let engine = builder.build();
        register_counter(&engine, Arc::clone(&executions), Arc::clone(&total));
        flexrpc::engine::expose_on_net(
            &engine,
            &net,
            host,
            "counter",
            400_777,
            1,
            ClientInfo::of(&pres),
        )
        .expect("exposes");
        engines.push(engine);
    }

    let endpoint = |host| {
        let net = Arc::clone(&net);
        move || {
            let t = SunRpc::new(Arc::clone(&net), client_host, host, 400_777, 1);
            Ok(ClientStub::new(compiled(&counter_module()), WireFormat::Cdr, Box::new(t)))
        }
    };
    let mut sup = Supervisor::builder()
        .endpoint(endpoint(r1))
        .endpoint(endpoint(r2))
        .connect()
        .expect("binds");
    sup.stub_mut().enable_at_most_once();

    // replica-1 executes (and its cache records the tag), then the stream
    // closes before the reply: the supervisor sees a disconnect and
    // replays the same tag against replica-2.
    net.faults().on_next_call(Fault::Close);
    let mut frame = sup.new_frame("add").expect("frame");
    frame[0] = Value::U32(9);
    sup.call_with("add", &mut frame, &CallOptions::default()).expect("failover recovers");
    assert_eq!(sup.current_endpoint(), 1, "bound to replica-2 after the failover");
    let value = frame[1].as_u32().expect("return");
    for engine in engines {
        engine.shutdown();
    }
    (executions.load(Ordering::SeqCst), total.load(Ordering::SeqCst), value)
}

/// The window itself, pinned: with *per-server* reply caches, a reply
/// lost after execution plus failover to a different replica re-executes
/// the non-idempotent call — at-most-once state that lives on one server
/// cannot suppress a replay arriving at another.
#[test]
fn per_server_caches_leave_the_cross_server_duplicate_window_open() {
    let (executions, total, _) = lost_reply_fails_over_to_second_replica(false);
    assert_eq!(executions, 2, "the replay re-executed on the second replica");
    assert_eq!(total, 18, "the non-idempotent mutation was applied twice");
}

/// Satellite regression: the same scenario with the engines built as a
/// group around one [`flexrpc::runtime::ReplyCache`]
/// (`EngineBuilder::shared_reply_cache`) suppresses the replay — the
/// documented cross-server duplicate window is closed.
#[test]
fn shared_group_cache_closes_the_cross_server_duplicate_window() {
    let (executions, total, value) = lost_reply_fails_over_to_second_replica(true);
    assert_eq!(executions, 1, "replica-2 answered the replay from the group cache");
    assert_eq!(total, 9, "the mutation was applied exactly once");
    assert_eq!(value, 9, "the cached reply is the one the lost stream carried");
}
