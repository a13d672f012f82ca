//! A queued call its caller is already waiting for runs where the caller
//! waits — and these tests pin when it must *not*.
//!
//! `CallTicket::wait` that finds no reply tries to serve its own job on the
//! calling thread. Three guards bound that: a serve token must be free (a
//! worker mid-drain — busy, or stalled in a handler — keeps its own), the
//! fair head of the queue must be that very call (so dequeue order is the
//! workers'), and a deadline wait never helps (the deadline must fire while
//! the handler is stuck). Each test below breaks if its guard does: the
//! handler records which thread ran which call, in what order, and whether
//! two executions ever overlapped.
//!
//! Every engine here has one worker, so one serve token and one replica:
//! "who ran it" has exactly two answers, the worker or the waiting caller.
//! Which of them runs an unguarded call is the scheduler's — the waiter
//! helps when it beats the woken worker to the token — so the test that a
//! waiter helps at all retries until it has.

use flexrpc_clock::Fault;
use flexrpc_core::ir::fileio_example;
use flexrpc_core::present::InterfacePresentation;
use flexrpc_core::value::Value;
use flexrpc_engine::{CallTicket, Engine, EngineBuilder, EngineConnection, Reply};
use flexrpc_marshal::WireFormat;
use flexrpc_runtime::policy::CallTag;
use flexrpc_runtime::wire::{AnyReader, AnyWriter};
use flexrpc_runtime::RpcError;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

/// How long a test waits for another thread before calling it stuck.
const STUCK: Duration = Duration::from_secs(30);

/// One handler execution, as the handler saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Ran {
    /// The call's `count` argument: the tests number their calls with it.
    count: u32,
    thread: ThreadId,
    /// Another execution was in progress when this one began.
    overlapped: bool,
}

/// A one-worker engine serving FileIO `read`, and the test's end of it.
struct Rig {
    engine: Arc<Engine>,
    conn: EngineConnection,
    /// Every execution so far, in the order they began.
    log: Arc<Mutex<Vec<Ran>>>,
    /// A `read(0)` is a plug: it reports in here, then holds whoever runs it
    /// until `release` is sent to.
    entered: mpsc::Receiver<()>,
    release: mpsc::Sender<()>,
}

fn rig(builder: EngineBuilder) -> Rig {
    let engine = builder.workers(1).queue_depth(16).build();
    let log = Arc::new(Mutex::new(Vec::new()));
    let busy = Arc::new(AtomicBool::new(false));
    let (entered_tx, entered) = mpsc::channel();
    let (release, release_rx) = mpsc::channel::<()>();
    let release_rx = Arc::new(Mutex::new(release_rx));
    let module = fileio_example();
    let pres =
        InterfacePresentation::default_for(&module, module.interface("FileIO").unwrap()).unwrap();
    let handler_log = Arc::clone(&log);
    engine
        .register_service("fileio", module, "FileIO", pres, WireFormat::Cdr, move |srv| {
            let (log, busy) = (Arc::clone(&handler_log), Arc::clone(&busy));
            let (entered_tx, release_rx) = (entered_tx.clone(), Arc::clone(&release_rx));
            srv.on("read", move |call| {
                let count = call.u32("count").unwrap();
                let overlapped = busy.swap(true, Ordering::SeqCst);
                log.lock().unwrap().push(Ran { count, thread: thread::current().id(), overlapped });
                if count == 0 {
                    entered_tx.send(()).unwrap();
                    release_rx.lock().unwrap().recv().unwrap();
                }
                call.set("return", Value::Bytes(vec![count as u8; count as usize])).unwrap();
                busy.store(false, Ordering::SeqCst);
                0
            })
            .unwrap();
        })
        .unwrap();
    let conn = engine.connect("fileio").establish().unwrap();
    Rig { engine, conn, log, entered, release }
}

fn read_request(count: u32) -> Vec<u8> {
    let mut w = AnyWriter::new(WireFormat::Cdr);
    w.put_u32(count);
    w.into_bytes()
}

/// Asserts `reply` is `read(count)`'s: `count` bytes of `count`, status 0.
fn assert_answers(reply: Result<Reply, RpcError>, count: u32) {
    let reply = reply.unwrap_or_else(|e| panic!("read({count}) failed: {e:?}"));
    let mut reader = AnyReader::new(WireFormat::Cdr, &reply.body).unwrap();
    assert_eq!(reader.get_bytes_borrowed().unwrap(), vec![count as u8; count as usize]);
    assert_eq!(reader.get_u32(), Ok(0));
}

impl Rig {
    fn submit(&self, count: u32) -> CallTicket {
        self.conn.submit(0, &read_request(count), &[]).unwrap()
    }

    fn log(&self) -> Vec<Ran> {
        self.log.lock().unwrap().clone()
    }
}

/// Guard (b), the serve token. The worker sits in the plug's handler, so it
/// holds the one token: a `wait()` on the call queued behind it must leave that
/// call unstarted — it is shutdown's to cancel, not the waiter's to run at
/// the gate its own thread will open.
#[test]
fn a_waiter_does_not_start_a_call_behind_a_stalled_worker_and_shutdown_still_cancels_it() {
    let rig = rig(Engine::builder());
    let plug = rig.submit(0);
    rig.entered.recv().unwrap();
    let unstarted = rig.submit(5);

    let (done_tx, done) = mpsc::channel();
    let waiter = thread::spawn(move || done_tx.send(unstarted.wait()).unwrap());
    // Nothing the waiter does before shutdown can produce a result, so this
    // can only time out; a waiter that helped itself would answer at once.
    // (A slow machine makes the check weaker, never wrong.)
    assert!(
        done.recv_timeout(Duration::from_millis(100)).is_err(),
        "the call behind the stalled worker was started by its waiter"
    );
    assert_eq!(rig.log().len(), 1, "only the plug has run");
    assert_eq!(rig.engine.stats().queue_depth, 1, "the call is still queued");

    let closer = {
        let engine = Arc::clone(&rig.engine);
        thread::spawn(move || engine.shutdown())
    };
    assert!(matches!(done.recv().unwrap(), Err(RpcError::Cancelled)));
    rig.release.send(()).unwrap();
    assert_answers(plug.wait(), 0);
    closer.join().unwrap();
    waiter.join().unwrap();

    let stats = rig.engine.stats();
    assert_eq!((stats.calls_served, stats.calls_cancelled, stats.calls_helped), (1, 1, 0));
    assert_eq!(rig.log().len(), 1, "the cancelled call never ran");
}

/// Guard (a), the fair head. With two calls queued, waiting on the later
/// one first must not run it ahead of the earlier, and must not run the
/// earlier one either — that is another ticket's call. The earlier call is
/// therefore never the main thread's: by the time its own ticket is waited
/// on, the later one's reply — and so its own — already exists.
#[test]
fn waiting_in_reverse_order_runs_nothing_out_of_order_and_nobody_elses_call() {
    const ROUNDS: u32 = 300;
    let rig = rig(Engine::builder());
    let me = thread::current().id();
    for round in 0..ROUNDS {
        let (earlier, later) = (1 + 2 * round % 200, 2 + 2 * round % 200);
        let (first, second) = (rig.submit(earlier), rig.submit(later));
        assert_answers(second.wait(), later);
        assert_answers(first.wait(), earlier);
    }
    let log = rig.log();
    assert_eq!(log.len(), 2 * ROUNDS as usize);
    for (round, pair) in log.chunks(2).enumerate() {
        let round = round as u32;
        assert_eq!(
            [pair[0].count, pair[1].count],
            [1 + 2 * round % 200, 2 + 2 * round % 200],
            "round {round} ran out of submission order"
        );
        assert_ne!(
            pair[0].thread, me,
            "round {round}: the waiter ran a call it was not waiting on"
        );
    }
    assert!(log.iter().all(|ran| !ran.overlapped));
    rig.engine.shutdown();
}

/// Guard (c). A deadline wait never runs the handler on the calling thread,
/// however idle the engine: a stalled handler must not take the deadline
/// down with it.
#[test]
fn a_deadline_wait_never_runs_the_handler_on_the_calling_thread() {
    const ROUNDS: u32 = 200;
    let rig = rig(Engine::builder());
    let me = thread::current().id();
    for round in 0..ROUNDS {
        let count = 1 + round % 100;
        assert_answers(rig.submit(count).wait_until(Some(u64::MAX)), count);
    }
    let log = rig.log();
    assert_eq!(log.len(), ROUNDS as usize);
    assert!(log.iter().all(|ran| ran.thread != me), "a deadline wait helped itself");
    assert_eq!(rig.engine.stats().calls_helped, 0);
    rig.engine.shutdown();
}

/// The token and the head together: a one-worker engine still executes one
/// job at a time, in dequeue order, whichever of the two threads runs each —
/// what a stateful service (the pipe server) observes. Every round races the
/// waiter against the worker's wake-up, and which of them wins is the
/// scheduler's: that a waiter helps at all is the next test's.
#[test]
fn one_worker_and_its_helping_callers_execute_strictly_in_order_one_at_a_time() {
    const ROUNDS: u32 = 1_000;
    const BATCH: u32 = 8;
    let rig = rig(Engine::builder());
    let me = thread::current().id();
    // Calls are numbered 1.. (0 is the plug), folded into a byte.
    let count_of = |n: u32| 1 + n % 250;
    let mut tickets = Vec::new();
    for round in 0..ROUNDS {
        tickets.extend((0..BATCH).map(|i| rig.submit(count_of(round * BATCH + i))));
        for (i, ticket) in (0..BATCH).zip(tickets.drain(..)) {
            assert_answers(ticket.wait(), count_of(round * BATCH + i));
        }
    }
    let log = rig.log();
    assert_eq!(log.len(), (ROUNDS * BATCH) as usize);
    for (n, ran) in log.iter().enumerate() {
        assert_eq!(ran.count, count_of(n as u32), "execution {n} is out of submission order");
        assert!(!ran.overlapped, "execution {n} began inside another");
    }
    let by_waiter = log.iter().filter(|ran| ran.thread == me).count() as u64;
    let stats = rig.engine.stats();
    assert_eq!(stats.calls_helped, by_waiter, "`calls_helped` is the calls the waiter ran");
    assert_eq!(stats.calls_served, u64::from(ROUNDS * BATCH), "helped or not, served once");
    assert_eq!(stats.inline_calls, 0, "a helped call is queued work");
    assert_eq!(rig.engine.metrics().snapshot().counter("engine.helped"), by_waiter);
    rig.engine.shutdown();
}

/// That a waiter does run its own call. A lone call on an idle engine is
/// the race the guards leave open: the submit wakes the parked worker, and
/// the waiter helps if it reaches the free token first — which it nearly
/// always does, but only nearly, so calls are made one at a time until one
/// was helped. That call ran on the waiting thread and answered its own
/// request.
#[test]
fn a_waiter_runs_its_own_call_when_a_serve_token_is_free() {
    let rig = rig(Engine::builder());
    let me = thread::current().id();
    let start = Instant::now();
    for round in 0u32.. {
        let helped = rig.engine.stats().calls_helped;
        let count = 1 + round % 100;
        assert_answers(rig.submit(count).wait(), count);
        if rig.engine.stats().calls_helped > helped {
            assert_eq!(rig.engine.stats().calls_helped, helped + 1);
            let ran = *rig.log().last().unwrap();
            assert_eq!((ran.count, ran.thread), (count, me), "the waiter ran its own call");
            break;
        }
        assert!(start.elapsed() < STUCK, "no waiter helped in {} rounds", round + 1);
    }
    rig.engine.shutdown();
}

/// A duplicated delivery queues a shadow — a cell of its own — ahead of the
/// real job. The waiter holds the real job's ticket, so the head it finds is
/// not its own: it must not run the shadow, and must not run its own job
/// past it. At-most-once then sees one execution, as it does without a
/// waiter in the way.
#[test]
fn a_duplicated_delivery_still_executes_once_when_the_waiter_arrives_first() {
    const ROUNDS: u32 = 200;
    let rig = rig(Engine::builder().at_most_once(Duration::from_secs(1)));
    let me = thread::current().id();
    for round in 0..ROUNDS {
        let count = 1 + round % 100;
        rig.engine.faults().on_next_call(Fault::Duplicate);
        let tag = Some(CallTag::new(77, u64::from(round)));
        let ticket = rig.conn.submit_tagged(0, &read_request(count), &[], None, tag).unwrap();
        // Straight to the wait: the worker is at best being woken.
        assert_answers(ticket.wait(), count);
    }
    let log = rig.log();
    assert_eq!(log.len(), ROUNDS as usize, "each duplicated call executed exactly once");
    assert!(log.iter().all(|ran| ran.thread != me), "the waiter ran a shadow, or ran past one");
    let stats = rig.engine.stats();
    assert_eq!(stats.reply_cache.suppressions, u64::from(ROUNDS));
    assert_eq!(stats.in_flight, 0, "both halves of every delivery completed");
    rig.engine.shutdown();
}
