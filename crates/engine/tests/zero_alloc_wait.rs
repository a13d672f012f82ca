//! Steady-state allocation audit for the reply slot, and for the submitting
//! side of a queued engine call built on it.
//!
//! A ticket wait on the slot — whether the reply is published before the
//! waiter looks or the waiter parks for it — must make **zero** heap
//! allocations: `fill` writes the value in place under the slot's lock and
//! sets a flag, `wait` moves the value out under the same lock or parks on a
//! `Condvar` that needs no node of its own. No boxing. The audit drives both
//! orders (fill-then-wait, and a waiter that starts before the fill).
//!
//! The queued round trip — `submit` × 32 then `wait` × 32 through a real
//! one-worker engine — allocates, once warm, exactly what someone keeps: two
//! per call (the reply body, the handler's own value), made by whichever
//! thread ran the call — the worker, or the submitter when its `wait` found
//! its own job next in line and nobody serving it. `submit` itself allocates
//! nothing: the call's slot and request buffers are a recycled job cell.

#[path = "../../runtime/tests/counting_alloc/mod.rs"]
mod counting_alloc;

use counting_alloc::counted;
use flexrpc_core::ir::fileio_example;
use flexrpc_core::present::InterfacePresentation;
use flexrpc_core::value::Value;
use flexrpc_engine::{CallTicket, Engine, ReplySlot};
use flexrpc_marshal::WireFormat;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};

/// Reply published before the waiter arrives: the waiter never parks.
/// The slot itself is allocated outside the counted region (engines pool
/// and reuse completion storage; the audit is about the *wait*, not the
/// slot's construction).
#[test]
fn warm_fill_then_wait_allocates_nothing() {
    let slot: ReplySlot<u64> = ReplySlot::new();
    let (allocs, got) = counted(|| {
        assert!(slot.fill(0xFEED));
        slot.wait()
    });
    assert_eq!(got, 0xFEED);
    assert_eq!(allocs, 0, "warm fill+wait must not touch the heap");
}

/// Same audit for the deadline-polling wait when the value is ready: it
/// returns before any park.
#[test]
fn warm_deadline_wait_allocates_nothing() {
    let slot: ReplySlot<u32> = ReplySlot::new();
    assert!(slot.fill(7));
    let (allocs, got) = counted(|| slot.wait_deadline(|| false));
    assert_eq!(got, Some(7));
    assert_eq!(allocs, 0, "ready deadline wait must not touch the heap");
}

/// A waiter that starts before the fill: whether it parks or finds the value
/// on its first look depends on the schedule, and neither allocates. The
/// filler thread is spawned (and its allocations made) before the counted
/// region, which counts only the waiter's own thread; every one of the 50
/// runs must stay at zero.
#[test]
fn a_waiter_that_starts_before_the_fill_never_allocates() {
    for run in 0..50 {
        let slot: Arc<ReplySlot<u64>> = Arc::new(ReplySlot::new());
        let s = Arc::clone(&slot);
        let filler = std::thread::spawn(move || {
            s.fill(42);
        });
        let (allocs, got) = counted(|| slot.wait());
        filler.join().unwrap();
        assert_eq!(got, 42);
        assert_eq!(allocs, 0, "run {run}: a wait on the slot must not touch the heap");
    }
}

/// A warm queued batch: `submit` allocates nothing, and the round trip two
/// per call wherever the call ran. The per-thread counter audits the
/// submitting thread; the enrolled one adds the worker's (the handler enrols
/// whoever runs it), so the worker's reply bodies — real allocations, made
/// over there — are counted once and a neighbour test's never. Runs in debug
/// and in `--release` (`scripts/ci.sh`): the profiles elide different
/// temporaries.
#[test]
fn warm_queued_round_trip_allocates_two_per_call_on_whichever_thread_ran_it() {
    const BATCH: usize = 32;

    let engine = Engine::builder().workers(1).build();
    let module = fileio_example();
    let pres =
        InterfacePresentation::default_for(&module, module.interface("FileIO").unwrap()).unwrap();
    // Handler runs per thread: the submitter's are the calls it helped
    // itself to, everyone else's the worker's.
    let submitter = std::thread::current().id();
    let ran = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
    let runs = Arc::clone(&ran);
    // A `read` of nothing is the warm-up's plug: it reports in, then holds
    // whoever runs it until released.
    let (entered_tx, entered) = mpsc::channel();
    let (release, release_rx) = mpsc::channel::<()>();
    let release_rx = Arc::new(Mutex::new(release_rx));
    engine
        .register_service("fileio", module, "FileIO", pres, WireFormat::Cdr, move |srv| {
            let (runs, entered_tx) = (Arc::clone(&runs), entered_tx.clone());
            let release_rx = Arc::clone(&release_rx);
            srv.on("read", move |call| {
                counting_alloc::enrol();
                let here = std::thread::current().id() == submitter;
                runs[usize::from(here)].fetch_add(1, Ordering::Relaxed);
                let count = call.u32("count").unwrap() as usize;
                if count == 0 {
                    entered_tx.send(()).unwrap();
                    release_rx.lock().unwrap().recv().unwrap();
                }
                call.set("return", Value::Bytes(vec![0x5A; count])).unwrap();
                0
            })
            .unwrap();
        })
        .unwrap();
    counting_alloc::enrol();
    let conn = engine.connect("fileio").establish().unwrap();
    let read = conn.program().op("read").unwrap().index;
    let read_request = |count| {
        let mut request = flexrpc_runtime::wire::AnyWriter::new(WireFormat::Cdr);
        request.put_u32(count);
        request.into_bytes()
    };
    let request = read_request(48);

    let mut tickets = Vec::with_capacity(BATCH);
    let mut replies = Vec::with_capacity(BATCH);
    let submit = |tickets: &mut Vec<_>| {
        for _ in 0..BATCH {
            tickets.push(conn.submit(read, &request, &[]).unwrap());
        }
    };
    let redeem = |tickets: &mut Vec<CallTicket>, replies: &mut Vec<_>| {
        for ticket in tickets.drain(..) {
            replies.push(ticket.wait().unwrap());
        }
    };
    // Warm-up. The first batch queues up behind the plug — nobody waits on
    // the plug before it is entered, so it is the worker's, which enrols it
    // and keeps it off the queue — and so takes everything to full depth
    // whatever the scheduling: 32 cells, a free list that holds them, a
    // lane 32 deep. The second runs entirely on recycled storage.
    let plug = conn.submit(read, &read_request(0), &[]).unwrap();
    entered.recv().unwrap();
    submit(&mut tickets);
    release.send(()).unwrap();
    plug.wait().unwrap();
    redeem(&mut tickets, &mut replies);
    replies.clear();
    submit(&mut tickets);
    redeem(&mut tickets, &mut replies);
    replies.clear();
    let before = (engine.stats(), [0, 1].map(|t| ran[t].load(Ordering::Relaxed)));
    let everyone = counting_alloc::enrolled_allocs();
    let (submitting, ()) = counted(|| submit(&mut tickets));
    let (waiting, ()) = counted(|| redeem(&mut tickets, &mut replies));
    let everyone = counting_alloc::enrolled_allocs() - everyone;
    assert_eq!(replies.len(), BATCH);
    assert!(replies.iter().all(|r| r.body.len() > 48));

    let stats = engine.stats();
    let helped = stats.calls_helped - before.0.calls_helped;
    let [by_worker, by_submitter] = [0, 1].map(|t| ran[t].load(Ordering::Relaxed) - before.1[t]);
    assert_eq!(submitting, 0, "a warm submit x{BATCH} must not allocate");
    assert_eq!(everyone, 2 * BATCH as u64, "reply body + handler value per call, no more");
    assert_eq!(waiting, 2 * helped, "a wait allocates only what a call it ran itself allocates");
    assert_eq!(by_submitter, helped, "`calls_helped` is the calls the waiter ran");
    assert_eq!(helped + by_worker, BATCH as u64, "each call ran once, on one thread or the other");
    assert_eq!(stats.calls_served - before.0.calls_served, BATCH as u64);
    assert_eq!(stats.inline_calls, 0, "every call crossed the queue");
    engine.shutdown();
}
