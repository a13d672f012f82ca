//! Live policy swap and combination rebind on a *loaded* connection.
//!
//! The tentpole's hardest promise: an operator can swap a tenant's
//! [`Policy`] and re-run bind-time negotiation on an established
//! connection — drain-and-swap the cached stub program — while
//! non-idempotent calls are in flight, and no execution is lost or
//! duplicated. The tests plug a one-worker engine so the backlog is real,
//! rebind at every interesting index of the submission sequence, and
//! count handler executions exactly. Replay suppression (PR 4's reply
//! cache) must keep working *across* the combination swap: a tag replayed
//! after the rebind is answered from the cache, not re-executed.

use flexrpc::engine::EngineError;
use flexrpc::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, PoisonError};
use std::time::Duration;

const TENANT: TenantId = TenantId(1);
const BINDING: u64 = 7;

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

fn presentation(trust: Trust) -> InterfacePresentation {
    let m = counter_module();
    let iface = m.interface("Counter").expect("declared");
    let mut pres = InterfacePresentation::default_for(&m, iface).expect("defaults");
    pres.trust = trust;
    pres
}

/// An engine serving a deliberately non-idempotent counter whose first
/// handler run blocks on `gate` (the plug that keeps the lone worker busy
/// while the test builds a backlog). `executions` counts every handler
/// run — the exactly-once ledger.
fn plugged_engine(
    plane: &Arc<ControlPlane>,
    gate: &Arc<Gate>,
    executions: &Arc<AtomicU64>,
) -> Arc<Engine> {
    let engine = Engine::builder()
        .workers(1)
        .queue_depth(128)
        .at_most_once(Duration::from_secs(60))
        .control(Arc::clone(plane))
        .build();
    let (gate, executions) = (Arc::clone(gate), Arc::clone(executions));
    engine
        .register_service(
            "counter",
            counter_module(),
            "Counter",
            presentation(Trust::None),
            WireFormat::Cdr,
            move |srv| {
                let (g, ex) = (Arc::clone(&gate), Arc::clone(&executions));
                srv.on("add", move |call| {
                    if ex.fetch_add(1, Ordering::SeqCst) == 0 {
                        g.wait();
                    }
                    let x = call.u32("x").expect("x");
                    call.set("return", Value::U32(x.wrapping_add(1))).expect("return");
                    0
                })
                .expect("registers");
            },
        )
        .expect("service registers");
    engine
}

/// A CDR-marshalled `add(x)` request.
fn add_request(x: u32) -> Vec<u8> {
    let mut w = flexrpc::runtime::wire::AnyWriter::new(WireFormat::Cdr);
    w.put_u32(x);
    w.into_bytes()
}

/// Runs the headline scenario with the policy swap + rebind injected
/// before tagged call `rebind_at`: plug the worker, pipeline `calls`
/// non-idempotent tagged submissions, swap the tenant's policy and
/// rebind the connection mid-stream, then drain. Returns the total
/// handler executions observed (the plug call included).
fn rebind_at_index(rebind_at: usize, calls: usize) -> u64 {
    let plane = ControlPlane::new();
    let handle = plane.register(TENANT, Policy::new().weight(2).quota(256));
    let gate = Arc::new(Gate::default());
    let executions = Arc::new(AtomicU64::new(0));
    let engine = plugged_engine(&plane, &gate, &executions);

    let conn = engine
        .connect("counter")
        .client(ClientInfo::of(&presentation(Trust::None)))
        .tenant(TENANT)
        .establish()
        .expect("connects");
    let programs_bound = engine.stats().cache.programs;
    let first_program = conn.program();

    // The plug: owns the lone worker until the gate opens, so every later
    // submission is genuinely in flight (queued) when the rebind lands.
    let plug = conn.submit(0, &add_request(999), &[]).expect("plug admitted");
    std::thread::sleep(Duration::from_millis(50));

    let mut tickets = Vec::with_capacity(calls);
    for i in 0..calls {
        if i == rebind_at {
            // The two halves of a live operator action: retune the
            // tenant's share, then re-negotiate the combination. Neither
            // may disturb the queued backlog.
            handle.swap(Policy::new().weight(5).quota(256));
            conn.rebind(&presentation(Trust::LeakyUnprotected)).expect("rebind succeeds");
        }
        let tag = CallTag::for_tenant(BINDING, i as u64, TENANT);
        let t =
            conn.submit_tagged(0, &add_request(i as u32), &[], None, Some(tag)).expect("admitted");
        tickets.push(t);
    }
    if rebind_at >= calls {
        handle.swap(Policy::new().weight(5).quota(256));
        conn.rebind(&presentation(Trust::LeakyUnprotected)).expect("rebind succeeds");
    }

    // The swapped binding is live for *new* work: a different trust means
    // a different combination, compiled fresh into the shared cache.
    assert_eq!(engine.stats().cache.programs, programs_bound + 1, "rebind compiled anew");
    assert!(
        !Arc::ptr_eq(&first_program, &conn.program()),
        "the connection now runs the new combination's program"
    );
    assert_eq!(engine.stats().rebinds, 1);

    gate.open();
    assert!(plug.wait().is_ok(), "the plugged call completes");
    for (i, t) in tickets.into_iter().enumerate() {
        let reply = t.wait();
        assert!(reply.is_ok(), "call {i} (rebind at {rebind_at}) lost: {reply:?}");
    }
    engine.shutdown();
    executions.load(Ordering::SeqCst)
}

/// Exactly-once across the swap, at every index: first call, mid-stream,
/// last call, and after the whole batch. Each run must execute the plug
/// plus every tagged call exactly once — zero lost, zero duplicated.
#[test]
fn live_rebind_loses_and_duplicates_nothing_at_any_index() {
    const CALLS: usize = 24;
    for rebind_at in [0, 1, CALLS / 2, CALLS - 1, CALLS] {
        let executions = rebind_at_index(rebind_at, CALLS);
        assert_eq!(
            executions,
            CALLS as u64 + 1,
            "rebind at index {rebind_at}: executions must be exactly once"
        );
    }
}

/// Replay suppression survives the combination swap: a tag executed under
/// the old binding and replayed under the new one is answered from the
/// reply cache — the handler does not run again, even though the program
/// it would run is a different compilation.
#[test]
fn replayed_tag_is_suppressed_across_the_rebind() {
    let plane = ControlPlane::new();
    plane.register(TENANT, Policy::new().quota(64));
    let gate = Arc::new(Gate::default());
    gate.open(); // no plug needed: this test is about the cache, not the queue
    let executions = Arc::new(AtomicU64::new(0));
    let engine = plugged_engine(&plane, &gate, &executions);
    let conn = engine
        .connect("counter")
        .client(ClientInfo::of(&presentation(Trust::None)))
        .tenant(TENANT)
        .establish()
        .expect("connects");

    let tag = CallTag::for_tenant(BINDING, 0, TENANT);
    let first = conn
        .submit_tagged(0, &add_request(41), &[], None, Some(tag))
        .expect("admitted")
        .wait()
        .expect("executes");
    assert_eq!(executions.load(Ordering::SeqCst), 1);

    conn.rebind(&presentation(Trust::LeakyUnprotected)).expect("rebind succeeds");

    // The failover replay: same logical tag, new combination.
    let replay = conn
        .submit_tagged(0, &add_request(41), &[], None, Some(tag))
        .expect("admitted")
        .wait()
        .expect("replayed");
    assert_eq!(executions.load(Ordering::SeqCst), 1, "the replay was a cache hit");
    assert_eq!(first.body, replay.body, "the cached reply is byte-identical");
    assert!(engine.reply_cache().expect("amo").stats().suppressions >= 1);
    engine.shutdown();
}

/// A failed rebind leaves the old binding in force: the connection keeps
/// serving on the combination it had, and nothing is charged as a rebind.
#[test]
fn failed_rebind_keeps_the_old_binding() {
    let plane = ControlPlane::new();
    let gate = Arc::new(Gate::default());
    gate.open();
    let executions = Arc::new(AtomicU64::new(0));
    let engine = plugged_engine(&plane, &gate, &executions);
    let conn = engine.connect("counter").tenant(TENANT).establish().expect("connects");
    let program = conn.program();

    // A client presentation that flips `add` to one-way cannot reconcile
    // with the server's request/reply declaration — negotiation refuses.
    let mut oneway = presentation(Trust::None);
    oneway.ops.get_mut("add").expect("op declared").call_shape =
        flexrpc::core::present::CallShape::Oneway;
    let err = conn.rebind(&oneway);
    assert!(
        matches!(err, Err(EngineError::ShapeMismatch(_))),
        "conflicting call shape must be refused: {err:?}"
    );
    assert!(Arc::ptr_eq(&program, &conn.program()), "old binding still in force");
    assert_eq!(engine.stats().rebinds, 0, "a refused rebind is not counted");

    let reply = conn.submit(0, &add_request(5), &[]).expect("admitted").wait();
    assert!(reply.is_ok(), "the connection keeps serving: {reply:?}");
    engine.shutdown();
}

/// A rebind swaps the combination, not the tenant: the connection keeps
/// the policy handle it resolved when established, so registering its
/// (already materialised) tenant and swapping the handle after the rebind
/// both govern the very next submission.
#[test]
fn rebound_connection_still_sees_policy_changes() {
    let plane = ControlPlane::new();
    let gate = Arc::new(Gate::default());
    let executions = Arc::new(AtomicU64::new(0));
    let engine = plugged_engine(&plane, &gate, &executions);
    let conn = engine.connect("counter").tenant(TENANT).establish().expect("connects");
    conn.rebind(&presentation(Trust::LeakyUnprotected)).expect("rebind succeeds");

    let plug = conn.submit(0, &add_request(999), &[]).expect("plug admitted");
    std::thread::sleep(Duration::from_millis(50));

    let handle = plane.register(TENANT, Policy::new().quota(2));
    let mut tickets: Vec<_> =
        (0..2).map(|i| conn.submit(0, &add_request(i), &[]).expect("under quota")).collect();
    assert!(
        matches!(conn.submit(0, &add_request(2), &[]), Err(EngineError::Overloaded)),
        "a quota registered after the rebind binds the connection"
    );
    handle.swap(Policy::new().quota(3));
    tickets.push(conn.submit(0, &add_request(2), &[]).expect("the widened quota admits"));

    gate.open();
    assert!(plug.wait().is_ok());
    for t in tickets {
        assert!(t.wait().is_ok());
    }
    let snap = engine.metrics().snapshot();
    assert_eq!(snap.counter("tenant.1.admitted"), 4);
    assert_eq!(snap.counter("tenant.1.shed"), 1);
    engine.shutdown();
}

/// The supervisor's explicit rebind: re-runs endpoint binding on the
/// current endpoint without a failure, carrying the at-most-once session
/// and the tenant across — the operator-initiated twin of failover.
#[test]
fn supervisor_rebind_carries_session_and_tenant() {
    let plane = ControlPlane::new();
    plane.register(TENANT, Policy::new().weight(3));
    let gate = Arc::new(Gate::default());
    gate.open();
    let executions = Arc::new(AtomicU64::new(0));
    let engine = plugged_engine(&plane, &gate, &executions);

    let m = counter_module();
    let iface = m.interface("Counter").expect("declared");
    let compiled =
        CompiledInterface::compile(&m, iface, &presentation(Trust::None)).expect("compiles");
    let eng = Arc::clone(&engine);
    let compiled2 = compiled.clone();
    let mut sup = Supervisor::builder()
        .endpoint(move || {
            let conn = eng.connect("counter").tenant(TENANT).establish()?;
            Ok(ClientStub::new(compiled2.clone(), WireFormat::Cdr, Box::new(conn)))
        })
        .connect()
        .expect("binds");
    sup.stub_mut().enable_at_most_once();
    sup.stub_mut().set_tenant(TENANT);

    let mut frame = sup.new_frame("add").expect("frame");
    frame[0] = Value::U32(10);
    sup.call_with("add", &mut frame, &CallOptions::default()).expect("serves");
    assert_eq!(frame[1].as_u32().expect("return"), 11);

    sup.rebind().expect("operator rebind succeeds");
    assert_eq!(sup.stub().tenant(), TENANT, "tenant survives the rebind");
    assert_eq!(sup.stats().rebinds, 2, "initial bind plus the live rebind");
    assert_eq!(sup.stats().disconnects, 0, "no failure forced it");

    // The session resumed, not restarted: the next call's tag continues
    // the sequence, so it executes (it is not a stale replay) and the
    // ledger advances by exactly one.
    let before = executions.load(Ordering::SeqCst);
    let mut frame = sup.new_frame("add").expect("frame");
    frame[0] = Value::U32(20);
    sup.call_with("add", &mut frame, &CallOptions::default()).expect("serves after rebind");
    assert_eq!(frame[1].as_u32().expect("return"), 21);
    assert_eq!(executions.load(Ordering::SeqCst), before + 1);
    engine.shutdown();
}

/// Incompatible contracts fail at bind, not at call: a client presentation
/// naming an operation the service does not have is refused by `establish`
/// and by `rebind` as a contract violation — and the refused rebind leaves
/// the old binding serving.
#[test]
fn a_client_naming_an_unknown_operation_is_refused_at_bind() {
    let plane = ControlPlane::new();
    let gate = Arc::new(Gate::default());
    gate.open();
    let executions = Arc::new(AtomicU64::new(0));
    let engine = plugged_engine(&plane, &gate, &executions);

    let mut stray = presentation(Trust::None);
    stray.ops.insert("reset".into(), Default::default());

    let err = engine.connect("counter").client_presentation(&stray).establish();
    let Err(err) = err else { panic!("an unknown operation must not bind") };
    assert!(matches!(err, EngineError::ShapeMismatch(_)), "{err:?}");
    assert!(err.to_string().contains("`reset`"), "names the operation: {err}");
    assert_eq!(RpcError::from(err).kind(), ErrorKind::ContractViolation);
    assert_eq!(engine.stats().connections, 0, "nothing was established");

    let conn = engine.connect("counter").tenant(TENANT).establish().expect("connects");
    let program = conn.program();
    let err = conn.rebind(&stray);
    assert!(matches!(err, Err(EngineError::ShapeMismatch(_))), "{err:?}");
    assert!(Arc::ptr_eq(&program, &conn.program()), "old binding still in force");
    assert_eq!(engine.stats().rebinds, 0, "a refused rebind is not counted");
    let reply = conn.submit(0, &add_request(5), &[]).expect("admitted").wait();
    assert!(reply.is_ok(), "the connection keeps serving: {reply:?}");
    engine.shutdown();
}

/// Every operation the service has carries a negotiated shape, whether the
/// client declared a presentation (one it does not list keeps the server's
/// shape) or accepted the server's outright; a name the service lacks has
/// none.
#[test]
fn every_server_operation_has_a_negotiated_shape_in_both_modes() {
    use flexrpc::core::present::CallShape;
    let plane = ControlPlane::new();
    let gate = Arc::new(Gate::default());
    gate.open();
    let executions = Arc::new(AtomicU64::new(0));
    let engine = plugged_engine(&plane, &gate, &executions);

    // A client presentation that lists no operations at all.
    let mut silent = presentation(Trust::Leaky);
    silent.ops.clear();

    let accepted = engine.connect("counter").establish().expect("connects");
    assert_eq!(accepted.negotiated_shape("add"), Some(CallShape::Unary));
    assert_eq!(accepted.negotiated_shape("reset"), None);

    let declared = engine.connect("counter").client_presentation(&silent).establish();
    let declared = declared.expect("connects");
    assert_eq!(declared.negotiated_shape("add"), Some(CallShape::Unary));
    assert_eq!(declared.negotiated_shape("reset"), None);

    accepted.rebind(&silent).expect("rebinds");
    assert_eq!(accepted.negotiated_shape("add"), Some(CallShape::Unary));
    engine.shutdown();
}
