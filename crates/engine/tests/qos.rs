//! Multi-tenant QoS acceptance tests: weighted-fair isolation under a
//! noisy-neighbor storm, quota sheds charged to the offender, and live
//! policy swaps redirecting admission without a drain — also on the path
//! where a connection admits from its own cached copy of the policy.
//!
//! Determinism: a *plug* call occupies the lone worker behind a gate
//! while every contending call is submitted at frozen sim time, so all
//! weighted-fair tags are assigned against `virtual_now == 0` and the
//! dequeue order is a pure function of (tenant, weight, sequence) — no
//! race against wall time. Handlers advance the sim clock by a fixed
//! `SERVICE_NS` per call, so queue dwell is exact arithmetic.

use flexrpc_core::ir::fileio_example;
use flexrpc_core::present::InterfacePresentation;
use flexrpc_core::value::Value;
use flexrpc_engine::{ControlPlane, Engine, EngineConnection, EngineError, Policy, TenantId};
use flexrpc_marshal::WireFormat;
use flexrpc_runtime::wire::AnyWriter;
use flexrpc_runtime::{CallControl, CallTag, Transport};
use flexrpc_trace::MetricsSnapshot;
use std::collections::BTreeMap;
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// How long a test waits for another thread before calling it stuck.
const STUCK: Duration = Duration::from_secs(30);

/// Sim-time cost of one call: a power of two, so log2 dwell buckets
/// resolve queue positions exactly.
const SERVICE_NS: u64 = 1 << 10;

const TENANT_A: TenantId = TenantId(1);
const TENANT_B: TenantId = TenantId(2);
const TENANT_PLUG: TenantId = TenantId(3);

#[derive(Default)]
struct Gate {
    open: Mutex<bool>,
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

fn read_request(count: u32) -> Vec<u8> {
    let mut w = AnyWriter::new(WireFormat::Cdr);
    w.put_u32(count);
    w.into_bytes()
}

/// One blocking `read(1)` on the connection's `&mut` path — the one that
/// admits from the connection's cached policies — optionally tagged.
fn blocking_read(conn: &mut EngineConnection, tag: Option<CallTag>) {
    let program = conn.program();
    let (mut reply, mut rights) = (Vec::new(), Vec::new());
    let ctl = CallControl { deadline_ns: None, tag };
    conn.call_with(
        program.op("read").unwrap(),
        &read_request(1),
        &[],
        &mut reply,
        &mut rights,
        &ctl,
    )
    .expect("the call is served");
}

/// One worker, a deep queue, and a `read` handler that blocks on `gate`
/// once (the plug call) and then charges `SERVICE_NS` of sim time per
/// call. Returns the engine and the gate.
fn plugged_engine(plane: &Arc<ControlPlane>) -> (Arc<Engine>, Arc<Gate>) {
    let engine = Engine::builder().workers(1).queue_depth(4096).control(Arc::clone(plane)).build();
    let gate = Arc::new(Gate::default());
    let clock = Arc::clone(engine.clock());
    let g = Arc::clone(&gate);
    engine
        .register_service(
            "qos",
            fileio_example(),
            "FileIO",
            fileio_presentation(),
            WireFormat::Cdr,
            move |srv| {
                let gate = Arc::clone(&g);
                let clock = Arc::clone(&clock);
                srv.on("read", move |call| {
                    // Only the plug call (count == 0) blocks; the storm
                    // and victim calls just charge service time.
                    let count = call.u32("count").unwrap();
                    if count == 0 {
                        gate.wait();
                    }
                    clock.advance(Duration::from_nanos(SERVICE_NS));
                    call.set("return", Value::Bytes(vec![0x5A; count as usize])).unwrap();
                    0
                })
                .unwrap();
            },
        )
        .unwrap();
    (engine, gate)
}

/// Waits (in real time) for the lone worker to pull the plug call off the
/// queue, so every later submission queues behind it at sim time 0.
fn settle() {
    std::thread::sleep(Duration::from_millis(50));
}

/// The highest value that *could* have been recorded into the histogram,
/// from its top non-empty log2 bucket (exclusive ceiling).
fn dwell_ceiling(snapshot: &MetricsSnapshot, name: &str) -> u64 {
    let h = snapshot.histogram(name).expect("histogram registered");
    let floor = h.buckets.iter().map(|(f, _)| *f).max().unwrap_or(0);
    if floor == 0 {
        1
    } else {
        floor * 2
    }
}

/// The noisy-neighbour storm on a fresh engine: tenant A offers 96 calls
/// against a quota of 64, then tenant B its steady 16, all behind the plug
/// at sim time 0; returns the engine's metrics once every admitted call is
/// served.
fn noisy_neighbor() -> MetricsSnapshot {
    let plane = ControlPlane::new();
    plane.register(TENANT_A, Policy::new().weight(1).quota(64));
    plane.register(TENANT_B, Policy::new().weight(1));
    let (engine, gate) = plugged_engine(&plane);
    let conn_plug = engine.connect("qos").tenant(TENANT_PLUG).establish().unwrap();
    let conn_a = engine.connect("qos").tenant(TENANT_A).establish().unwrap();
    let conn_b = engine.connect("qos").tenant(TENANT_B).establish().unwrap();

    let plug = conn_plug.submit(0, &read_request(0), &[]).unwrap();
    settle(); // the worker now holds the plug; sim time is frozen at 0

    // The storm: 96 calls against a quota of 64 — 32 must shed, charged
    // to A. Then the victim's steady 16.
    let mut a_tickets = Vec::new();
    let mut a_shed = 0u64;
    for _ in 0..96 {
        match conn_a.submit(0, &read_request(1), &[]) {
            Ok(t) => a_tickets.push(t),
            Err(EngineError::Overloaded) => a_shed += 1,
            Err(e) => panic!("unexpected admission error: {e}"),
        }
    }
    let b_tickets: Vec<_> =
        (0..16).map(|_| conn_b.submit(0, &read_request(1), &[]).unwrap()).collect();
    assert_eq!(a_shed, 32, "the storm's excess is shed at admission");

    gate.open();
    assert!(plug.wait().is_ok());
    for t in a_tickets {
        assert!(t.wait().is_ok());
    }
    for t in b_tickets {
        assert!(t.wait().is_ok());
    }
    let snap = engine.metrics().snapshot();
    engine.shutdown();
    snap
}

/// Tenant A storms at 6× tenant B's load with a quota of 64; both run at
/// weight 1. Weighted-fair dequeue alternates the two backlogged lanes,
/// so B's worst dwell tracks *B's own* backlog (≈ 2 × 16 calls), not A's
/// — under the old FIFO queue B's last call would sit behind all 64 of
/// A's (dwell ≥ 80 × SERVICE_NS, one log2 bucket higher). A's excess is
/// shed against its own quota; B sheds nothing.
#[test]
fn noisy_neighbor_cannot_move_victims_dwell() {
    let snap = noisy_neighbor();
    assert_eq!(snap.counter("tenant.1.admitted"), 64);
    assert_eq!(snap.counter("tenant.1.shed"), 32, "shed charged to the offender");
    assert_eq!(snap.counter("tenant.2.admitted"), 16);
    assert_eq!(snap.counter("tenant.2.shed"), 0, "the victim shed nothing");
    assert_eq!(snap.counter("tenant.2.served"), 16);
    assert_eq!(snap.counter("engine.shed"), 32);

    // Equal weights alternate the lanes: B's 16th call dequeues at
    // position 32, so its dwell is exactly 32 × SERVICE_NS = 2^15 —
    // bucket ceiling 2^16. FIFO would start it at 80 × SERVICE_NS
    // (≈ 2^16.3), a bucket higher.
    let b_worst = dwell_ceiling(&snap, "tenant.2.dwell_ns");
    assert!(
        b_worst <= 1 << 16,
        "victim dwell ceiling {b_worst} exceeds the weighted-fair bound {}",
        1u64 << 16
    );
}

/// The storm is exact arithmetic on sim time: run twice on fresh engines,
/// it leaves every per-tenant counter and dwell histogram equal.
#[test]
fn noisy_neighbor_reruns_to_equal_tenant_counters_and_dwell() {
    let tenant_cells = |snap: MetricsSnapshot| {
        let tenant = |name: &String| name.starts_with("tenant.");
        let counters: BTreeMap<_, _> =
            snap.counters.into_iter().filter(|(n, _)| tenant(n)).collect();
        let dwell: BTreeMap<_, _> =
            snap.histograms.into_iter().filter(|(n, _)| tenant(n)).collect();
        (counters, dwell)
    };
    let first = tenant_cells(noisy_neighbor());
    assert!(first.1.contains_key("tenant.2.dwell_ns"), "{:?}", first.1.keys());
    assert_eq!(
        first,
        tenant_cells(noisy_neighbor()),
        "a rerun of the storm moved a tenant's cells"
    );
}

/// Raising a tenant's weight shifts the drain ratio: at weight 3 vs 1,
/// the heavy lane takes three of every four slots while both lanes are
/// backlogged, so the light lane's last call drains near the end.
#[test]
fn weights_divide_the_drain_deterministically() {
    let plane = ControlPlane::new();
    plane.register(TENANT_A, Policy::new().weight(3));
    plane.register(TENANT_B, Policy::new().weight(1));
    let (engine, gate) = plugged_engine(&plane);
    let conn_plug = engine.connect("qos").tenant(TENANT_PLUG).establish().unwrap();
    let conn_a = engine.connect("qos").tenant(TENANT_A).establish().unwrap();
    let conn_b = engine.connect("qos").tenant(TENANT_B).establish().unwrap();

    let plug = conn_plug.submit(0, &read_request(0), &[]).unwrap();
    settle();
    let a: Vec<_> = (0..16).map(|_| conn_a.submit(0, &read_request(1), &[]).unwrap()).collect();
    let b: Vec<_> = (0..16).map(|_| conn_b.submit(0, &read_request(1), &[]).unwrap()).collect();

    gate.open();
    assert!(plug.wait().is_ok());
    for t in a.into_iter().chain(b) {
        assert!(t.wait().is_ok());
    }

    // Equal backlogs, unequal weights: while both lanes are backlogged
    // the drain gives A three of every four slots, so A's 16 calls are
    // done by position 22 (mean dwell ≈ 11.3 × SERVICE_NS) while B's
    // tail waits out the full drain (mean ≈ 21.7 × SERVICE_NS). At
    // equal weights both means would be ≈ 16.5 × SERVICE_NS.
    let snap = engine.metrics().snapshot();
    let a_mean = snap.histogram("tenant.1.dwell_ns").unwrap().mean();
    let b_mean = snap.histogram("tenant.2.dwell_ns").unwrap().mean();
    assert!(
        a_mean * 3 < b_mean * 2,
        "weight 3 must drain markedly faster than weight 1 (A mean {a_mean}, B mean {b_mean})"
    );
    engine.shutdown();
}

/// Weighted-fair order is the engine's one queue's, not a worker's. Two
/// workers are plugged, one after the other, and behind them a weight-3
/// tenant queues 12 calls over three connections, then a weight-1 tenant 4
/// over two — every tag assigned against one frozen virtual clock. Once one
/// plug is released its worker starts all sixteen, one at a time (the other
/// still holds its serve token, so no waiter can help), in exact start-time
/// fair order: three heavy calls to every light one, although every light
/// call arrived after every heavy one.
#[test]
fn two_workers_serve_two_tenants_in_one_fair_order() {
    let plane = ControlPlane::new();
    plane.register(TENANT_A, Policy::new().weight(3));
    plane.register(TENANT_B, Policy::new().weight(1));
    let engine = Engine::builder().workers(2).queue_depth(64).control(Arc::clone(&plane)).build();
    let started = Arc::new(Mutex::new(Vec::new()));
    let (entered_tx, entered) = mpsc::channel();
    let (release, plug) = mpsc::channel::<()>();
    let (log, plug) = (Arc::clone(&started), Arc::new(Mutex::new(plug)));
    engine
        .register_service(
            "qos",
            fileio_example(),
            "FileIO",
            fileio_presentation(),
            WireFormat::Cdr,
            move |srv| {
                let (log, entered, plug) =
                    (Arc::clone(&log), entered_tx.clone(), Arc::clone(&plug));
                srv.on("read", move |call| {
                    // `read(0)` is a plug: it holds its worker until released.
                    let count = call.u32("count").unwrap();
                    if count == 0 {
                        entered.send(()).unwrap();
                        plug.lock().unwrap().recv().unwrap();
                    } else {
                        log.lock().unwrap().push(count);
                    }
                    call.set("return", Value::Bytes(Vec::new())).unwrap();
                    0
                })
                .unwrap();
            },
        )
        .unwrap();
    let conn_plug = engine.connect("qos").tenant(TENANT_PLUG).establish().unwrap();
    let plugs: Vec<_> = (0..2)
        .map(|_| {
            let plug = conn_plug.submit(0, &read_request(0), &[]).unwrap();
            entered.recv_timeout(STUCK).expect("an idle worker takes the plug");
            plug
        })
        .collect();

    let connect = |tenant| engine.connect("qos").tenant(tenant).establish().unwrap();
    let heavy: Vec<_> = (0..3).map(|_| connect(TENANT_A)).collect();
    let light: Vec<_> = (0..2).map(|_| connect(TENANT_B)).collect();
    let mut tickets = Vec::new();
    for n in 1..=12 {
        tickets.push(heavy[n as usize % 3].submit(0, &read_request(n), &[]).unwrap());
    }
    for n in 101..=104 {
        tickets.push(light[n as usize % 2].submit(0, &read_request(n), &[]).unwrap());
    }
    release.send(()).unwrap();
    for t in tickets {
        assert!(t.wait().is_ok());
    }
    assert_eq!(
        *started.lock().unwrap(),
        [1, 101, 2, 3, 4, 102, 5, 6, 7, 103, 8, 9, 10, 104, 11, 12],
        "start order across both tenants' connections"
    );

    release.send(()).unwrap();
    for plug in plugs {
        assert!(plug.wait().is_ok());
    }
    engine.shutdown();
}

/// A live `PolicyHandle::swap` applies to the very next admission: the
/// tenant's quota is tightened mid-storm without touching the engine,
/// the connection, or the calls already queued.
#[test]
fn policy_swap_applies_to_subsequent_admissions() {
    let plane = ControlPlane::new();
    let handle = plane.register(TENANT_A, Policy::new().quota(8));
    let (engine, gate) = plugged_engine(&plane);
    let conn_plug = engine.connect("qos").tenant(TENANT_PLUG).establish().unwrap();
    let conn = engine.connect("qos").tenant(TENANT_A).establish().unwrap();

    let plug = conn_plug.submit(0, &read_request(0), &[]).unwrap();
    settle();
    let first: Vec<_> = (0..8).map(|_| conn.submit(0, &read_request(1), &[]).unwrap()).collect();
    assert!(
        matches!(conn.submit(0, &read_request(1), &[]), Err(EngineError::Overloaded)),
        "quota 8 is exhausted"
    );

    // Tighten to 4: already-queued calls are untouched (8 remain), and
    // the lane stays over the new bound, so admissions keep shedding.
    assert_eq!(handle.swap(Policy::new().quota(4)), 2);
    assert!(matches!(conn.submit(0, &read_request(1), &[]), Err(EngineError::Overloaded)));

    // Widen to 16 by registering again, which swaps through the same
    // handle: the next submission is admitted immediately.
    plane.register(TENANT_A, Policy::new().quota(16));
    let extra = conn.submit(0, &read_request(1), &[]).unwrap();

    gate.open();
    assert!(plug.wait().is_ok());
    for t in first.into_iter().chain([extra]) {
        assert!(t.wait().is_ok());
    }
    let snap = engine.metrics().snapshot();
    assert_eq!(snap.counter("tenant.1.admitted"), 9);
    assert_eq!(snap.counter("tenant.1.shed"), 2);
    assert_eq!(snap.counter("tenant.1.policy_swaps"), 2);
    engine.shutdown();
}

/// A connection resolves its tenant's handle and metric cells once, when
/// it is established. That must not make it stale: registering the tenant
/// it already materialised, and swapping through the handle, are both seen
/// by the very next call on the old connection.
#[test]
fn connection_bound_before_the_change_sees_registration_and_swap() {
    let plane = ControlPlane::new();
    let (engine, gate) = plugged_engine(&plane);
    // Bound while A and B are unknown: both start from the neutral policy.
    let conn_plug = engine.connect("qos").tenant(TENANT_PLUG).establish().unwrap();
    let conn_a = engine.connect("qos").tenant(TENANT_A).establish().unwrap();
    let conn_b = engine.connect("qos").tenant(TENANT_B).establish().unwrap();
    assert_eq!(plane.tenant_count(), 3, "establishing materialises the tenant");

    // Registration after the fact goes through the handle the connection
    // already holds, not a second one.
    let handle = plane.register(TENANT_A, Policy::new().weight(3).quota(16));
    assert_eq!((plane.tenant_count(), handle.version()), (3, 2));

    let plug = conn_plug.submit(0, &read_request(0), &[]).unwrap();
    settle();
    let mut a: Vec<_> = (0..16).map(|_| conn_a.submit(0, &read_request(1), &[]).unwrap()).collect();
    assert!(
        matches!(conn_a.submit(0, &read_request(1), &[]), Err(EngineError::Overloaded)),
        "the registered quota of 16 binds the old connection"
    );
    let b: Vec<_> = (0..16).map(|_| conn_b.submit(0, &read_request(1), &[]).unwrap()).collect();

    handle.swap(Policy::new().weight(3).quota(32));
    a.push(conn_a.submit(0, &read_request(1), &[]).expect("the swapped quota admits at once"));

    gate.open();
    assert!(plug.wait().is_ok());
    for t in a.into_iter().chain(b) {
        assert!(t.wait().is_ok());
    }
    let snap = engine.metrics().snapshot();
    assert_eq!(snap.counter("tenant.1.admitted"), 17);
    assert_eq!(snap.counter("tenant.1.shed"), 1);
    // The registered weight reached the queue too: the same 3-to-1 drain as
    // `weights_divide_the_drain_deterministically`.
    let a_mean = snap.histogram("tenant.1.dwell_ns").unwrap().mean();
    let b_mean = snap.histogram("tenant.2.dwell_ns").unwrap().mean();
    assert!(a_mean * 3 < b_mean * 2, "weight 3 not applied (A mean {a_mean}, B mean {b_mean})");
    engine.shutdown();
}

/// A tag naming another tenant (the acceptor's case: tenancy rides the
/// wire credential) is admitted under *that* tenant's policy and charged
/// to *its* cells on both paths, not to the tenant the connection bound.
#[test]
fn tag_borne_foreign_tenant_is_charged_to_its_own_cells() {
    let plane = ControlPlane::new();
    plane.register(TENANT_B, Policy::new().quota(1));
    let (engine, gate) = plugged_engine(&plane);
    let mut conn = engine.connect("qos").tenant(TENANT_A).establish().unwrap();
    let as_b = |seq| Some(CallTag::for_tenant(7, seq, TENANT_B));

    // Inline: nothing queued, so the blocking call runs on this thread.
    blocking_read(&mut conn, as_b(0));

    // Queued: behind the plug, B's quota of one — not A's absence of one —
    // decides, and the shed is B's.
    let plug = conn.submit(0, &read_request(0), &[]).unwrap();
    settle();
    let queued = conn.submit_tagged(0, &read_request(1), &[], None, as_b(1)).unwrap();
    assert!(matches!(
        conn.submit_tagged(0, &read_request(1), &[], None, as_b(2)),
        Err(EngineError::Overloaded)
    ));
    gate.open();
    assert!(plug.wait().is_ok() && queued.wait().is_ok());

    let snap = engine.metrics().snapshot();
    assert_eq!(snap.counter("engine.inline_calls"), 1);
    assert_eq!(snap.counter("tenant.2.served"), 2, "inline and queued both charged to B");
    assert_eq!(snap.counter("tenant.2.admitted"), 1);
    assert_eq!(snap.counter("tenant.2.shed"), 1);
    assert_eq!(snap.counter("tenant.1.served"), 1, "only the untagged plug is A's");
    assert_eq!(snap.counter("tenant.1.shed"), 0);
    engine.shutdown();
}

/// A policy with a dwell limit gives every call a deadline, and a call
/// with a deadline never dispatches inline — so whether `inline_calls`
/// rose says which policy a call on an idle engine was admitted under.
fn limited() -> Policy {
    Policy::new().dwell_limit(Duration::from_secs(1))
}

/// A blocking call validates its cached policy by version, so a swap must
/// reach the very next call on the same connection, in either direction.
#[test]
fn a_swap_between_two_calls_reaches_the_second_through_the_cache() {
    let plane = ControlPlane::new();
    let handle = plane.register(TENANT_A, Policy::new());
    let (engine, _gate) = plugged_engine(&plane);
    let mut conn = engine.connect("qos").tenant(TENANT_A).establish().unwrap();
    let inline_after_call = |conn: &mut EngineConnection| {
        blocking_read(conn, None);
        engine.stats().inline_calls
    };
    assert_eq!(handle.version(), 1, "versions count swaps from 1");
    assert_eq!(inline_after_call(&mut conn), 1);

    assert_eq!(handle.swap(limited()), 2);
    assert_eq!(inline_after_call(&mut conn), 1, "the tenant's new dwell limit queues the call");
    assert_eq!(handle.swap(Policy::new()), 3);
    assert_eq!(inline_after_call(&mut conn), 2, "and its removal restores inline dispatch");

    assert_eq!((handle.version(), engine.stats().calls_served), (3, 3));
    assert_eq!(engine.metrics().snapshot().counter("tenant.1.admitted"), 1, "one rode the queue");
    engine.shutdown();
}

/// The same across threads: a swapper alternates two policies while
/// another thread calls. Each round is a handshake — the swap returns, then
/// the call begins — and no such call may be admitted under the policy its
/// round's swap replaced.
#[test]
fn no_call_begun_after_a_swap_returned_sees_the_replaced_policy() {
    use std::sync::mpsc;
    const ROUNDS: u64 = 200;

    let plane = ControlPlane::new();
    let handle = plane.register(TENANT_A, Policy::new());
    let (engine, _gate) = plugged_engine(&plane);
    let mut conn = engine.connect("qos").tenant(TENANT_A).establish().unwrap();
    let (swapped_tx, swapped) = mpsc::channel();
    let (called_tx, called) = mpsc::channel();
    std::thread::scope(|s| {
        let handle = &handle;
        s.spawn(move || {
            for round in 0..ROUNDS {
                handle.swap(if round % 2 == 0 { limited() } else { Policy::new() });
                swapped_tx.send(round % 2 == 0).unwrap();
                called.recv().expect("the caller answers every round");
            }
        });
        // Owned by this body, so a failed assertion below hangs up on the
        // swapper instead of leaving it waiting for an answer.
        let (swapped, called_tx) = (swapped, called_tx);
        for round in 0..ROUNDS {
            let limited_now = swapped.recv().expect("the swapper leads every round");
            let before = engine.stats().inline_calls;
            blocking_read(&mut conn, None);
            let went_inline = engine.stats().inline_calls - before == 1;
            assert_eq!(went_inline, !limited_now, "round {round}: admitted under a stale policy");
            called_tx.send(()).unwrap();
        }
    });
    assert_eq!(engine.stats().calls_served, ROUNDS);
    engine.shutdown();
}

/// The same for `submit(&self)`, which validates the connection's cached
/// policy by version under its binding's read lock and refreshes it under
/// the write lock: with one call of the tenant queued behind the plug, a
/// quota of one sheds exactly the rounds whose swap put it in force. A
/// rebind after a swap keeps the swapped policy.
#[test]
fn no_submit_begun_after_a_swap_returned_sees_the_replaced_policy() {
    use std::sync::mpsc;
    const ROUNDS: u64 = 200;
    let quota = || Policy::new().quota(1);

    let plane = ControlPlane::new();
    let handle = plane.register(TENANT_A, Policy::new());
    let (engine, gate) = plugged_engine(&plane);
    let conn_plug = engine.connect("qos").tenant(TENANT_PLUG).establish().unwrap();
    let conn = engine.connect("qos").tenant(TENANT_A).establish().unwrap();
    let plug = conn_plug.submit(0, &read_request(0), &[]).unwrap();
    settle();
    let mut queued = vec![conn.submit(0, &read_request(1), &[]).unwrap()];

    let (swapped_tx, swapped) = mpsc::channel();
    let (submitted_tx, submitted) = mpsc::channel();
    std::thread::scope(|s| {
        let handle = &handle;
        s.spawn(move || {
            for round in 0..ROUNDS {
                handle.swap(if round % 2 == 0 { quota() } else { Policy::new() });
                swapped_tx.send(round % 2 == 0).unwrap();
                submitted.recv().expect("the submitter answers every round");
            }
        });
        let (swapped, submitted_tx) = (swapped, submitted_tx);
        for round in 0..ROUNDS {
            let quota_now = swapped.recv().expect("the swapper leads every round");
            match conn.submit(0, &read_request(1), &[]) {
                Ok(ticket) => {
                    assert!(!quota_now, "round {round}: admitted under the replaced policy");
                    queued.push(ticket);
                }
                Err(e) => {
                    assert!(quota_now, "round {round}: shed under the replaced policy");
                    assert!(matches!(e, EngineError::Overloaded), "round {round}: {e:?}");
                }
            }
            submitted_tx.send(()).unwrap();
        }
    });

    let pres = fileio_presentation();
    handle.swap(quota());
    conn.rebind(&pres).unwrap();
    let shed = conn.submit(0, &read_request(1), &[]);
    assert!(matches!(shed, Err(EngineError::Overloaded)), "the rebind kept the quota");
    handle.swap(Policy::new());
    conn.rebind(&pres).unwrap();
    queued.push(conn.submit(0, &read_request(1), &[]).expect("the rebind kept its removal"));

    gate.open();
    assert!(plug.wait().is_ok());
    for ticket in queued {
        assert!(ticket.wait().is_ok());
    }
    let snap = engine.metrics().snapshot();
    assert_eq!(snap.counter("tenant.1.shed"), ROUNDS / 2 + 1);
    engine.shutdown();
}

/// The cached policy is the *binding's* tenant's. A tag naming another
/// tenant is admitted under that tenant's live policy, whichever of the
/// two has the limit.
#[test]
fn a_foreign_tenant_tag_is_not_admitted_under_the_cached_policy() {
    let plane = ControlPlane::new();
    let own = plane.register(TENANT_A, Policy::new());
    let foreign = plane.register(TENANT_B, limited());
    let (engine, _gate) = plugged_engine(&plane);
    let mut conn = engine.connect("qos").tenant(TENANT_A).establish().unwrap();
    let as_b = |seq| Some(CallTag::for_tenant(7, seq, TENANT_B));

    blocking_read(&mut conn, None);
    assert_eq!(engine.stats().inline_calls, 1, "A has no limit: inline, and the cache is warm");
    blocking_read(&mut conn, as_b(0));
    assert_eq!(engine.stats().inline_calls, 1, "B's limit, not A's lack of one");

    own.swap(limited());
    foreign.swap(Policy::new());
    blocking_read(&mut conn, None);
    assert_eq!(engine.stats().inline_calls, 1, "A's limit is cached now");
    blocking_read(&mut conn, as_b(1));
    assert_eq!(engine.stats().inline_calls, 2, "B's lack of one, not A's cached limit");

    let snap = engine.metrics().snapshot();
    assert_eq!((snap.counter("tenant.1.served"), snap.counter("tenant.2.served")), (2, 2));
    assert_eq!((snap.counter("tenant.1.admitted"), snap.counter("tenant.2.admitted")), (1, 1));
    engine.shutdown();
}

/// The anonymous default tenant preserves pre-tenancy behavior: no
/// quota, weight 1, one lane — and the engine policy's high water still
/// sheds as the aggregate backstop.
#[test]
fn default_tenant_keeps_single_queue_semantics() {
    let engine =
        Engine::builder().workers(1).queue_depth(8).policy(Policy::new().high_water(2)).build();
    let gate = Arc::new(Gate::default());
    let clock = Arc::clone(engine.clock());
    let g = Arc::clone(&gate);
    engine
        .register_service(
            "qos",
            fileio_example(),
            "FileIO",
            fileio_presentation(),
            WireFormat::Cdr,
            move |srv| {
                let gate = Arc::clone(&g);
                let clock = Arc::clone(&clock);
                srv.on("read", move |call| {
                    gate.wait();
                    clock.advance(Duration::from_nanos(SERVICE_NS));
                    call.set("return", Value::Bytes(Vec::new())).unwrap();
                    0
                })
                .unwrap();
            },
        )
        .unwrap();
    let conn = engine.connect("qos").establish().unwrap();
    assert_eq!(conn.tenant(), TenantId::DEFAULT);

    let executing = conn.submit(0, &read_request(0), &[]).unwrap();
    settle();
    let queued: Vec<_> = (0..2).map(|_| conn.submit(0, &read_request(0), &[]).unwrap()).collect();
    assert!(matches!(conn.submit(0, &read_request(0), &[]), Err(EngineError::Overloaded)));

    gate.open();
    assert!(executing.wait().is_ok());
    for t in queued {
        assert!(t.wait().is_ok());
    }
    let snap = engine.metrics().snapshot();
    assert_eq!(snap.counter("tenant.0.admitted"), 3);
    assert_eq!(snap.counter("tenant.0.shed"), 1, "backstop sheds charge the submitter");
    assert_eq!(snap.counter("engine.shed"), 1);
    engine.shutdown();
}
