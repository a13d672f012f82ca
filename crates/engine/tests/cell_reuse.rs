//! A queued call's job cell (completion slot + request buffers) is recycled
//! through the engine's free list. These tests pin what reuse must never
//! do: carry a byte of one call's request or reply into another, or hand a
//! later submit a cell the worker can still fill.
//!
//! The service echoes its argument back transformed, so every reply is a
//! function of its own request and is compared in full. Engines here queue
//! at most four calls (a queue depth of 4), which makes the free list's
//! capacity (`queue_depth`) 4: a few dozen calls cycle every cell many
//! times over.

use flexrpc_clock::Fault;
use flexrpc_core::ir::{Dialect, Interface, Module, Operation, Param, ParamDir, Type};
use flexrpc_core::present::InterfacePresentation;
use flexrpc_core::value::Value;
use flexrpc_engine::{Engine, EngineBuilder, EngineConnection, Reply};
use flexrpc_marshal::WireFormat;
use flexrpc_runtime::policy::CallTag;
use flexrpc_runtime::wire::{AnyReader, AnyWriter};
use flexrpc_runtime::RpcError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

/// The free list's capacity on the engines built here.
const CAPACITY: usize = 4;

/// How long a test waits for another thread before calling it stuck.
const STUCK: Duration = Duration::from_secs(30);

fn echo_module() -> Module {
    let mut m = Module::new("echo", Dialect::Corba);
    m.interfaces.push(Interface::new(
        "Echo",
        vec![Operation::new(
            "flip",
            vec![Param::new("data", ParamDir::In, Type::octet_seq())],
            Type::octet_seq(),
        )],
    ));
    m
}

/// What `flip` answers for `data`: its length, then its bytes reversed and
/// inverted — nothing a stale buffer of another length could imitate.
fn flipped(data: &[u8]) -> Vec<u8> {
    let mut out = vec![data.len() as u8];
    out.extend(data.iter().rev().map(|b| !b));
    out
}

/// An engine of `workers` workers serving `flip`, its free list holding
/// `CAPACITY` cells. `before` runs at the top of every handler execution
/// with the number of executions so far.
fn echo_engine(
    builder: EngineBuilder,
    workers: usize,
    before: impl Fn(u64) + Send + Sync + 'static,
) -> (Arc<Engine>, EngineConnection, Arc<AtomicU64>) {
    let engine = builder.workers(workers).queue_depth(CAPACITY).build();
    let module = echo_module();
    let pres =
        InterfacePresentation::default_for(&module, module.interface("Echo").unwrap()).unwrap();
    let executions = Arc::new(AtomicU64::new(0));
    let (ex, before) = (Arc::clone(&executions), Arc::new(before));
    engine
        .register_service("echo", module, "Echo", pres, WireFormat::Cdr, move |srv| {
            let (ex, before) = (Arc::clone(&ex), Arc::clone(&before));
            srv.on("flip", move |call| {
                before(ex.fetch_add(1, Ordering::SeqCst));
                let answer = flipped(call.bytes("data").unwrap());
                call.set("return", Value::Bytes(answer)).unwrap();
                0
            })
            .unwrap();
        })
        .unwrap();
    let conn = engine.connect("echo").establish().unwrap();
    (engine, conn, executions)
}

fn request(data: &[u8]) -> Vec<u8> {
    let mut w = AnyWriter::new(WireFormat::Cdr);
    w.put_bytes(data);
    w.into_bytes()
}

/// The `i`th test payload: length and content both vary with `i`, long
/// after short and short after long.
fn payload(i: usize) -> Vec<u8> {
    let len = [3, 200, 0, 64, 1, 129, 17][i % 7];
    (0..len).map(|k| (i * 31 + k) as u8).collect()
}

#[track_caller]
fn assert_answers(reply: Result<Reply, RpcError>, data: &[u8]) {
    let reply = reply.expect("served");
    let mut r = AnyReader::new(WireFormat::Cdr, &reply.body).unwrap();
    assert_eq!(r.get_bytes_borrowed().unwrap(), flipped(data), "the reply to {data:?}");
    assert_eq!(r.get_u32(), Ok(0), "status");
    assert_eq!(r.remaining(), 0, "nothing rides behind the reply");
    assert!(reply.rights.is_empty());
}

/// Batches of every size up to `max_batch`, for many multiples of the list's
/// capacity: each cell is refilled with longer and shorter requests. Returns
/// how many calls were made.
fn interleaved_batches(conn: &EngineConnection, max_batch: usize) -> usize {
    let mut i = 0;
    for round in 0..10 * CAPACITY {
        let batch = 1 + round % max_batch;
        let sent: Vec<_> = (i..i + batch).map(payload).collect();
        let tickets: Vec<_> =
            sent.iter().map(|data| conn.submit(0, &request(data), &[]).unwrap()).collect();
        // Redeem newest first on odd rounds, so cells also return out of
        // submission order.
        let mut pairs: Vec<_> = tickets.into_iter().zip(&sent).collect();
        if round % 2 == 1 {
            pairs.reverse();
        }
        for (ticket, data) in pairs {
            assert_answers(ticket.wait(), data);
        }
        i += batch;
    }
    i
}

#[test]
fn interleaved_lengths_through_recycled_cells_answer_in_full() {
    let (engine, conn, _) = echo_engine(Engine::builder(), 1, |_| {});
    let calls = interleaved_batches(&conn, CAPACITY);
    assert_eq!(engine.stats().calls_served as usize, calls);
    engine.shutdown();
}

/// A waiter that runs its own job keeps the reply it produced — it never
/// publishes to its own slot — and hands the cell back all the same, for
/// the next submit to refill. Which thread runs a lone call on an idle
/// two-worker engine is the scheduler's (the waiter helps when it beats a
/// woken worker to a free serve token), so calls are made one at a time
/// until waiters have run `4 × CAPACITY` of them, every cell many times
/// over; each reply is checked in full, and every call the waiting thread
/// ran is one `calls_helped` counts. The cells those calls used then serve
/// batches, answered through the slot by whoever runs them, just as
/// cleanly.
#[test]
fn a_helped_call_keeps_its_own_reply_and_its_cell_serves_the_next_submit() {
    const HELPED: u64 = 4 * CAPACITY as u64;
    let ran_on = Arc::new(Mutex::new(Vec::<ThreadId>::new()));
    let log = Arc::clone(&ran_on);
    let (engine, conn, _) = echo_engine(Engine::builder(), 2, move |_| {
        log.lock().unwrap().push(thread::current().id());
    });
    let start = Instant::now();
    let mut calls = 0;
    while engine.stats().calls_helped < HELPED {
        assert!(start.elapsed() < STUCK, "waiters helped in only some of {calls} calls");
        let data = payload(calls);
        assert_answers(conn.submit(0, &request(&data), &[]).unwrap().wait(), &data);
        calls += 1;
    }
    let me = thread::current().id();
    let here = ran_on.lock().unwrap().iter().filter(|t| **t == me).count() as u64;
    assert_eq!(here, engine.stats().calls_helped, "a helped call ran on its waiting thread");

    interleaved_batches(&conn, CAPACITY);
    engine.shutdown();
}

/// Two ways a ticket goes away while the worker can still fill its cell —
/// dropped unredeemed while queued, and given up at a deadline while
/// executing (which does return the cell to the list). Neither cell may
/// reach a later submit before the worker lets go of it.
#[test]
fn an_abandoned_cell_is_not_reused_while_its_job_can_fill_it() {
    let (entered_tx, entered) = mpsc::channel();
    let (release, plug) = mpsc::channel::<()>();
    let (entered_tx, plug) = (Mutex::new(entered_tx), Mutex::new(plug));
    let (engine, conn, executions) = echo_engine(Engine::builder(), 1, move |nth| {
        if nth == 0 {
            entered_tx.lock().unwrap().send(()).unwrap();
            plug.lock().unwrap().recv().unwrap();
        }
    });

    let deadline = Some(engine.clock().now_ns() + 1_000_000);
    let executing = conn.submit_with(0, &request(&payload(1)), &[], deadline).unwrap();
    entered.recv_timeout(STUCK).expect("the worker reaches the handler");
    drop(conn.submit(0, &request(&payload(3)), &[]).unwrap()); // queued behind the plug
    engine.clock().advance(Duration::from_millis(2));
    assert!(matches!(executing.wait_until(deadline), Err(RpcError::DeadlineExceeded)));

    // The executing call's cell now heads the free list with its job still
    // inside the handler. These submits must each get a cell of their own.
    let later: Vec<_> = (10..10 + 2 * CAPACITY).map(payload).collect();
    let submitter = {
        let later = later.clone();
        std::thread::spawn(move || {
            // Off-thread: the queue (depth 4) is full until the plug goes.
            let tickets: Vec<_> =
                later.iter().map(|data| conn.submit(0, &request(data), &[]).unwrap()).collect();
            tickets.into_iter().map(|t| t.wait()).collect::<Vec<_>>()
        })
    };
    release.send(()).unwrap();
    for (reply, data) in submitter.join().unwrap().into_iter().zip(&later) {
        assert_answers(reply, data);
    }
    assert_eq!(executions.load(Ordering::SeqCst) as usize, 2 + later.len());
    engine.shutdown();
}

#[test]
fn a_duplicated_delivery_runs_once_and_both_halves_complete() {
    let (engine, conn, executions) =
        echo_engine(Engine::builder().at_most_once(Duration::from_secs(1)), 1, |_| {});
    // Warm the free list so the duplicated call and its shadow draw
    // recycled cells, not only new ones.
    for i in 0..2 * CAPACITY {
        assert_answers(conn.submit(0, &request(&payload(i)), &[]).unwrap().wait(), &payload(i));
    }
    let warm = executions.load(Ordering::SeqCst);

    engine.faults().on_next_call(Fault::Duplicate);
    let data = payload(5);
    let tag = Some(CallTag::new(77, 1));
    let ticket = conn.submit_tagged(0, &request(&data), &[], None, tag).unwrap();
    assert_answers(ticket.wait(), &data);
    assert_eq!(
        executions.load(Ordering::SeqCst),
        warm + 1,
        "the shadow ran, the real half replayed"
    );
    let stats = engine.stats();
    assert_eq!(stats.reply_cache.suppressions, 1);
    assert_eq!(stats.in_flight, 0, "both halves completed");

    // The cells that carried the two halves serve later calls cleanly.
    for i in 20..20 + 2 * CAPACITY {
        assert_answers(conn.submit(0, &request(&payload(i)), &[]).unwrap().wait(), &payload(i));
    }
    engine.shutdown();
}
