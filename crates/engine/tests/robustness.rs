//! Robustness-layer acceptance tests for the engine: admission control
//! (shedding at the high-water mark), queue-dwell deadlines, pre-failed
//! tickets for dead-on-arrival deadlines, cancel-on-drain shutdown,
//! deadline enforcement while a call is stuck *executing*, and statistics
//! that a stuck call cannot stall.
//!
//! Every deadline here is measured on the engine's deterministic sim
//! clock: tests advance it explicitly, so expiry is exact, never a race
//! against wall time. Real-time sleeps appear only to sequence threads
//! (letting a worker pick up a job), never to define a deadline.

use flexrpc_core::ir::fileio_example;
use flexrpc_core::present::InterfacePresentation;
use flexrpc_core::value::Value;
use flexrpc_engine::{expose_on_net, ClientInfo, Engine, EngineBuilder, EngineError, Policy};
use flexrpc_marshal::WireFormat;
use flexrpc_net::sunrpc::AcceptStat;
use flexrpc_net::{NetConfig, SimNet};
use flexrpc_runtime::RpcError;
use parking_lot::Mutex;
use std::sync::{Arc, Condvar, PoisonError};
use std::thread;
use std::time::Duration;

/// A latch the test holds closed while calls pile up behind it.
#[derive(Default)]
struct Gate {
    open: std::sync::Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn wait(&self) {
        let open = self.open.lock().unwrap_or_else(PoisonError::into_inner);
        drop(self.cv.wait_while(open, |open| !*open).unwrap_or_else(PoisonError::into_inner));
    }

    fn open(&self) {
        *self.open.lock().unwrap_or_else(PoisonError::into_inner) = true;
        self.cv.notify_all();
    }
}

fn fileio_presentation() -> InterfacePresentation {
    let m = fileio_example();
    let iface = m.interface("FileIO").unwrap();
    InterfacePresentation::default_for(&m, iface).unwrap()
}

/// Registers a FileIO service whose `read` blocks on `gate` before
/// answering — a stalled server the tests control precisely.
fn register_gated(engine: &Arc<Engine>, name: &str, gate: &Arc<Gate>) {
    let gate = Arc::clone(gate);
    engine
        .register_service(
            name,
            fileio_example(),
            "FileIO",
            fileio_presentation(),
            WireFormat::Cdr,
            move |srv| {
                let g = Arc::clone(&gate);
                srv.on("read", move |call| {
                    g.wait();
                    let count = call.u32("count").unwrap() as usize;
                    call.set("return", Value::Bytes(vec![0x5A; count])).unwrap();
                    0
                })
                .unwrap();
            },
        )
        .unwrap();
}

/// A CDR-marshalled `read(count)` request.
fn read_request(count: u32) -> Vec<u8> {
    let mut w = flexrpc_runtime::wire::AnyWriter::new(WireFormat::Cdr);
    w.put_u32(count);
    w.into_bytes()
}

fn gated_engine(builder: EngineBuilder) -> (Arc<Engine>, Arc<Gate>) {
    let engine = builder.build();
    let gate = Arc::new(Gate::default());
    register_gated(&engine, "slow", &gate);
    (engine, gate)
}

/// Waits (in real time) for the lone worker to pull the head job off the
/// queue, so later submissions count queue dwell from a known state.
fn settle() {
    thread::sleep(Duration::from_millis(50));
}

#[test]
fn queue_above_high_water_sheds_instead_of_blocking() {
    let (engine, gate) = gated_engine(
        Engine::builder().workers(1).queue_depth(8).policy(Policy::new().high_water(2)),
    );
    let conn = engine.connect("slow").establish().unwrap();
    let req = read_request(4);

    let executing = conn.submit(0, &req, &[]).unwrap();
    settle(); // worker now holds the first call at the gate
    let queued: Vec<_> = (0..2).map(|_| conn.submit(0, &req, &[]).unwrap()).collect();
    // The backlog is at the high-water mark: admission fails fast, the
    // submitter is not blocked, and the engine keeps serving what it has.
    assert!(matches!(conn.submit(0, &req, &[]), Err(EngineError::Overloaded)));
    assert!(matches!(conn.submit(0, &req, &[]), Err(EngineError::Overloaded)));

    gate.open();
    assert!(executing.wait().is_ok());
    for t in queued {
        assert!(t.wait().is_ok(), "admitted calls still complete");
    }
    let stats = engine.stats();
    assert_eq!(stats.calls_shed, 2);
    assert_eq!(stats.calls_served, 3);
    assert_eq!(stats.in_flight, 0);
}

#[test]
fn queued_call_expires_at_the_dwell_limit() {
    let (engine, gate) = gated_engine(
        Engine::builder()
            .workers(1)
            .queue_depth(8)
            .policy(Policy::new().dwell_limit(Duration::from_millis(1))),
    );
    let conn = engine.connect("slow").establish().unwrap();
    let req = read_request(4);

    let executing = conn.submit(0, &req, &[]).unwrap();
    settle(); // the first call is past its dwell check, stalled at the gate
    let stale = conn.submit(0, &req, &[]).unwrap();
    // 2 ms of virtual time pass while the job waits for the lone worker.
    engine.clock().advance(Duration::from_millis(2));
    gate.open();

    assert!(executing.wait().is_ok(), "a started call is never expired retroactively");
    assert!(matches!(stale.wait(), Err(RpcError::DeadlineExceeded)));
    let stats = engine.stats();
    assert_eq!(stats.deadline_expired, 1);
    assert_eq!(stats.calls_served, 1);
    assert_eq!(stats.in_flight, 0);
}

#[test]
fn dead_on_arrival_deadline_never_enters_the_queue() {
    let (engine, gate) = gated_engine(Engine::builder().workers(1).queue_depth(8));
    let conn = engine.connect("slow").establish().unwrap();
    engine.clock().advance(Duration::from_millis(10));
    let past = Some(engine.clock().now_ns() - 1_000_000);
    let ticket = conn.submit_with(0, &read_request(4), &[], past).unwrap();
    assert!(matches!(ticket.wait(), Err(RpcError::DeadlineExceeded)));
    let stats = engine.stats();
    assert_eq!(stats.deadline_expired, 1);
    assert_eq!(stats.in_flight, 0, "the job was refused at admission, not queued");
    gate.open();
    engine.shutdown();
}

#[test]
fn shutdown_cancels_unstarted_work_and_finishes_started_work() {
    let (engine, gate) = gated_engine(Engine::builder().workers(1).queue_depth(8));
    let conn = engine.connect("slow").establish().unwrap();
    let req = read_request(4);

    let started = conn.submit(0, &req, &[]).unwrap();
    settle(); // the worker owns the first call
    let unstarted = conn.submit(0, &req, &[]).unwrap();

    // Shutdown drains the queue immediately (failing the unstarted call),
    // then blocks joining the worker still stuck at the gate.
    let eng = Arc::clone(&engine);
    let closer = thread::spawn(move || eng.shutdown());
    assert!(
        matches!(unstarted.wait(), Err(RpcError::Cancelled)),
        "a queued-but-unstarted call learns of the drain immediately"
    );
    gate.open();
    assert!(started.wait().is_ok(), "a started call runs to completion");
    closer.join().unwrap();

    let stats = engine.stats();
    assert_eq!(stats.calls_cancelled, 1);
    assert_eq!(stats.calls_served, 1);
    assert_eq!(stats.in_flight, 0);
}

#[test]
fn stalled_execution_trips_the_ticket_deadline() {
    let (engine, gate) = gated_engine(Engine::builder().workers(1).queue_depth(8));
    let conn = engine.connect("slow").establish().unwrap();
    let deadline = Some(engine.clock().now_ns() + 1_000_000); // 1 ms
    let ticket = conn.submit_with(0, &read_request(4), &[], deadline).unwrap();
    settle(); // the call is *executing*, stuck inside the handler
    engine.clock().advance(Duration::from_millis(2));
    assert!(
        matches!(ticket.wait_until(deadline), Err(RpcError::DeadlineExceeded)),
        "a deadline fires even while the call is stuck executing"
    );
    gate.open();
    engine.shutdown();
}

#[test]
fn network_clients_see_shed_calls_as_system_err() {
    let (engine, gate) = gated_engine(
        Engine::builder().workers(1).queue_depth(8).policy(Policy::new().high_water(2)),
    );
    let net = SimNet::with_config(NetConfig::default());
    let server = net.add_host("server");
    let client_host = net.add_host("client");
    let pres = fileio_presentation();
    expose_on_net(&engine, &net, server, "slow", 77, 1, ClientInfo::of(&pres)).unwrap();

    // Eight pipelined calls hit a one-worker engine that admits at most
    // two queued jobs: the overflow must come back as SYSTEM_ERR replies,
    // not a torn connection.
    let mut pipe =
        flexrpc_engine::SunRpcPipeline::new(Arc::clone(&net), client_host, server, 77, 1);
    let req = read_request(4);
    for _ in 0..8 {
        pipe.submit(0, &req);
    }
    let g = Arc::clone(&gate);
    let opener = thread::spawn(move || {
        thread::sleep(Duration::from_millis(100));
        g.open();
    });
    let replies = pipe.flush().unwrap();
    opener.join().unwrap();

    assert_eq!(replies.len(), 8, "every call got a reply");
    let served = replies.iter().filter(|(s, _)| *s == AcceptStat::Success).count();
    let shed = replies.iter().filter(|(s, _)| *s == AcceptStat::SystemErr).count();
    assert_eq!(served + shed, 8);
    assert!(served > 0, "the engine kept serving under overload");
    assert!(shed > 0, "the overflow was shed");
    assert_eq!(engine.stats().calls_shed as usize, shed);
}

/// The dispatch tallies live behind each replica's lock, and a parked
/// handler holds its replica's for as long as it is parked. Reading the
/// statistics must not need that lock: `stats()` returns while the call is
/// still stuck, and counts it in flight.
#[test]
fn stats_do_not_wait_for_a_stalled_handler() {
    use flexrpc_runtime::{CallControl, Transport};
    use std::sync::mpsc;

    let patience = Duration::from_secs(30);
    let (entered_tx, entered) = mpsc::channel();
    let gate = Arc::new(Gate::default());
    let engine = Engine::builder().workers(1).build();
    {
        let gate = Arc::clone(&gate);
        engine
            .register_service(
                "slow",
                fileio_example(),
                "FileIO",
                fileio_presentation(),
                WireFormat::Cdr,
                move |srv| {
                    let (gate, entered) = (Arc::clone(&gate), entered_tx.clone());
                    srv.on("read", move |_| {
                        entered.send(()).unwrap();
                        gate.wait();
                        0
                    })
                    .unwrap();
                },
            )
            .unwrap();
    }
    // An idle engine dispatches a blocking call inline: the caller's own
    // thread parks in the handler, inside the replica lock.
    let mut conn = engine.connect("slow").establish().unwrap();
    let caller = thread::spawn(move || {
        let program = conn.program();
        let (mut reply, mut rights) = (Vec::new(), Vec::new());
        conn.call_with(
            program.op("read").unwrap(),
            &read_request(4),
            &[],
            &mut reply,
            &mut rights,
            &CallControl::none(),
        )
    });
    entered.recv_timeout(patience).expect("the call reaches the handler");

    let (stats_tx, stats_rx) = mpsc::channel();
    let eng = Arc::clone(&engine);
    let reader = thread::spawn(move || stats_tx.send(eng.stats()).unwrap());
    let stats = stats_rx.recv_timeout(patience);
    gate.open();
    let stats = stats.expect("stats() waited for the stalled replica");
    assert_eq!((stats.in_flight, stats.calls_served), (1, 0));
    caller.join().unwrap().expect("the stalled call completes");
    reader.join().unwrap();
    let stats = engine.stats();
    assert_eq!((stats.in_flight, stats.calls_served, stats.inline_calls), (0, 1, 1));
}

/// The worker can be the last holder of the engine: it upgrades its weak
/// handle for the job it runs, and the submitter drops everything meanwhile.
/// `Engine::drop` then runs on that worker, which must not join itself (a
/// panic out of `drop`) yet must still join its peer.
#[test]
fn a_worker_left_holding_the_last_engine_handle_does_not_join_itself() {
    use std::sync::mpsc;

    /// Dropped with the last handler closure — wherever the engine's
    /// teardown runs — and reports whether that thread was unwinding.
    struct Witness(mpsc::Sender<bool>);
    impl Drop for Witness {
        fn drop(&mut self) {
            let _ = self.0.send(thread::panicking());
        }
    }

    let patience = Duration::from_secs(30);
    let (entered_tx, entered) = mpsc::channel();
    let (finished_tx, finished) = mpsc::channel();
    let (torn_down_tx, torn_down) = mpsc::channel();
    let gate = Arc::new(Gate::default());
    let engine = Engine::builder().workers(2).build();
    {
        let gate = Arc::clone(&gate);
        let witness = Arc::new(Witness(torn_down_tx));
        engine
            .register_service(
                "slow",
                fileio_example(),
                "FileIO",
                fileio_presentation(),
                WireFormat::Cdr,
                move |srv| {
                    let (gate, witness) = (Arc::clone(&gate), Arc::clone(&witness));
                    let (entered, finished) = (entered_tx.clone(), finished_tx.clone());
                    srv.on("read", move |_| {
                        let _held_by_this_closure = &witness;
                        entered.send(()).unwrap();
                        gate.wait();
                        finished.send(()).unwrap();
                        0
                    })
                    .unwrap();
                },
            )
            .unwrap();
    }
    let conn = engine.connect("slow").establish().unwrap();
    let ticket = conn.submit(0, &read_request(4), &[]).unwrap();
    entered.recv_timeout(patience).expect("the worker reaches the handler");
    drop(ticket);
    drop(conn);
    drop(engine); // the worker's upgraded handle is now the only one
    gate.open();

    finished.recv_timeout(patience).expect("the handler ran to completion");
    let unwinding = torn_down.recv_timeout(patience).expect("the engine was torn down");
    assert!(!unwinding, "the worker panicked tearing the engine down");
}

/// A work function that gathers fewer bytes than its sink payload declared
/// fails its own call — with the `WindowMisuse` its `put_gather` returned —
/// and nothing else: finishing that reply used to panic the thread that
/// dispatched it, and for a queued call that is the worker, so the caller
/// waited forever and the engine lost its only worker. Both calls here are
/// deadline waits, which never run the call on the waiting thread: the
/// second one is served by the worker that served the first.
#[test]
fn a_short_gather_fails_its_call_and_its_worker_serves_the_next() {
    use flexrpc_core::annot::{apply_pdl, Attr, OpAnnot, ParamAnnot, PdlFile};
    use flexrpc_marshal::MarshalError;

    let m = fileio_example();
    let never = ParamAnnot { param: "return".into(), attrs: vec![Attr::DeallocNever] };
    let ops = vec![OpAnnot { op: "read".into(), op_attrs: vec![], params: vec![never] }];
    let iface = m.interface("FileIO").unwrap();
    let pres = apply_pdl(&m, iface, &fileio_presentation(), &PdlFile { ops, ..PdlFile::default() })
        .unwrap();
    let engine = Engine::builder().workers(1).build();
    let ran_on = Arc::new(Mutex::new(Vec::new()));
    let log = Arc::clone(&ran_on);
    engine
        .register_service("sink", m.clone(), "FileIO", pres, WireFormat::Cdr, move |srv| {
            let log = Arc::clone(&log);
            srv.on("read", move |call| {
                log.lock().push(thread::current().id());
                // Declares `count` bytes and gathers three.
                let count = call.u32("count").unwrap() as usize;
                let _ = call.sink.put_gather(count, |emit| emit(&[1, 2, 3]));
                0
            })
            .unwrap();
        })
        .unwrap();
    let conn = engine.connect("sink").establish().unwrap();
    // Waited on from another thread: a call nobody answers fails the test
    // instead of hanging it.
    let call = |count: u32| {
        let ticket = conn.submit(0, &read_request(count), &[]).unwrap();
        let (answered, answer) = std::sync::mpsc::channel();
        let waiter =
            thread::spawn(move || answered.send(ticket.wait_until(Some(u64::MAX))).unwrap());
        let reply = answer.recv_timeout(Duration::from_secs(10)).expect("the call is answered");
        waiter.join().unwrap();
        reply
    };

    let err = call(10).unwrap_err();
    assert!(matches!(err, RpcError::Marshal(MarshalError::WindowMisuse(_))), "{err:?}");
    let reply = call(3).expect("the honest gather");
    let mut r = flexrpc_runtime::wire::AnyReader::new(WireFormat::Cdr, &reply.body).unwrap();
    assert_eq!(r.get_bytes_borrowed().unwrap(), [1, 2, 3]);
    assert_eq!(r.get_u32().unwrap(), 0, "status");

    let ran_on = ran_on.lock().clone();
    assert_eq!(ran_on.len(), 2);
    assert_eq!(ran_on[0], ran_on[1], "one worker served both calls");
    assert_ne!(ran_on[0], thread::current().id());
    let stats = engine.stats();
    assert_eq!((stats.calls_served, stats.calls_helped, stats.dispatch_errors), (2, 0, 1));
    engine.shutdown();
}
