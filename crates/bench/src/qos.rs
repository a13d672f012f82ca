//! Multi-tenant QoS under a noisy neighbor, plus live rebind under load —
//! both on deterministic sim time.
//!
//! **Noisy neighbor.** Tenant A offers 10× tenant B's load into a
//! one-worker engine whose queue is plugged, so the whole backlog forms
//! before anything drains. A's excess is shed against A's *own* quota; B
//! is never shed; and because the drain is weighted-fair, B's p99 queue
//! dwell stays within a closed-form bound (B's last call sits at position
//! ~2·OFFERED_B of the interleaved drain, not behind A's entire admitted
//! burst). Everything is counted in sim-nanoseconds on per-tenant
//! counters, so the run is exactly reproducible.
//!
//! **Live rebind.** A connection with a plugged backlog of tagged
//! non-idempotent calls has its tenant policy swapped and its combination
//! re-negotiated mid-stream; the drain must execute every call exactly
//! once — zero lost, zero duplicated — at every rebind index tried.

use flexrpc_core::present::{InterfacePresentation, Trust};
use flexrpc_core::value::Value;
use flexrpc_engine::{ClientInfo, ControlPlane, Engine, EngineError, Policy, TenantId};
use flexrpc_marshal::WireFormat;
use flexrpc_pipes::fileio_module;
use flexrpc_runtime::wire::AnyWriter;
use flexrpc_runtime::CallTag;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// Sim-time cost of one call (a power of two, so dwell positions resolve
/// to distinct log2 histogram buckets).
pub const SERVICE_NS: u64 = 1 << 10;
/// Tenant A's admission quota (queued calls at once).
pub const QUOTA_A: usize = 512;
/// Calls tenant A offers — 10× tenant B's load, 25% past A's own quota.
pub const OFFERED_A: usize = 640;
/// Calls tenant B offers.
pub const OFFERED_B: usize = 64;
/// The gated bound on B's p99 queue dwell under the A-storm: B's last
/// call drains at position ≤ 2·OFFERED_B of the fair interleave, so its
/// dwell lands in the log2 bucket below 2^18 sim-ns. A FIFO drain would
/// put it behind all of A's admitted burst, an order of magnitude higher.
pub const DWELL_BOUND_NS: u64 = 1 << 18;

const TENANT_A: TenantId = TenantId(1);
const TENANT_B: TenantId = TenantId(2);
const TENANT_PLUG: TenantId = TenantId(3);

/// One noisy-neighbor run's ledger (all sim-time, so two runs of the same
/// configuration must compare equal).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QosRun {
    /// Calls tenant A offered.
    pub offered_a: usize,
    /// A's calls admitted (== its quota).
    pub admitted_a: u64,
    /// A's calls shed against its own quota.
    pub shed_a: u64,
    /// B's calls admitted (all of them).
    pub admitted_b: u64,
    /// B's calls shed (must be zero: A's storm is charged to A).
    pub shed_b: u64,
    /// B's calls served to completion.
    pub served_b: u64,
    /// Engine-wide shed counter (must equal `shed_a`).
    pub engine_shed: u64,
    /// Ceiling of B's worst queue dwell (top non-empty log2 bucket).
    pub b_dwell_p99_ns: u64,
    /// Mean queue dwell of B's calls, sim-ns.
    pub b_dwell_mean_ns: u64,
    /// Mean queue dwell of A's calls, sim-ns.
    pub a_dwell_mean_ns: u64,
}

/// A latch the experiment holds closed while the backlog forms.
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

fn presentation() -> InterfacePresentation {
    let m = fileio_module();
    let iface = m.interface("FileIO").expect("FileIO exists");
    let mut pres = InterfacePresentation::default_for(&m, iface).expect("defaults");
    pres.trust = Trust::None;
    pres
}

fn read_request() -> Vec<u8> {
    let mut w = AnyWriter::new(WireFormat::Cdr);
    w.put_u32(16);
    w.into_bytes()
}

/// A one-worker engine whose first `read` execution blocks on `gate` (the
/// plug that keeps the lone worker busy while submissions pile up); every
/// execution bumps `executions` and charges `SERVICE_NS` to the sim
/// clock, so queue dwell is exact.
fn plugged_engine(
    plane: &Arc<ControlPlane>,
    gate: &Arc<Gate>,
    executions: &Arc<AtomicU64>,
) -> Arc<Engine> {
    let engine = Engine::builder()
        .workers(1)
        .queue_depth(2 * (QUOTA_A + OFFERED_B))
        .at_most_once(Duration::from_secs(60))
        .control(Arc::clone(plane))
        .build();
    let (gate, executions) = (Arc::clone(gate), Arc::clone(executions));
    let clock = Arc::clone(engine.clock());
    engine
        .register_service("qos", fileio_module(), "FileIO", presentation(), WireFormat::Cdr, {
            move |srv| {
                let (g, ex) = (Arc::clone(&gate), Arc::clone(&executions));
                let clk = Arc::clone(&clock);
                srv.on("read", move |call| {
                    if ex.fetch_add(1, Ordering::SeqCst) == 0 {
                        g.wait();
                    }
                    clk.advance_ns(SERVICE_NS);
                    call.set("return", Value::Bytes(vec![0u8; 16])).expect("set");
                    0
                })
                .expect("read registers");
            }
        })
        .expect("service registers");
    engine
}

/// Ceiling of the top non-empty bucket of `name` (log2 histogram): an
/// exact, deterministic stand-in for "p99-or-worse dwell".
fn dwell_ceiling(snap: &flexrpc_trace::MetricsSnapshot, name: &str) -> u64 {
    snap.histogram(name)
        .and_then(|h| h.buckets.iter().rev().find(|(_, n)| *n > 0))
        .map(|(floor, _)| floor * 2)
        .unwrap_or(0)
}

/// Runs the noisy-neighbor storm once and returns its (deterministic)
/// ledger.
pub fn noisy_neighbor() -> QosRun {
    let plane = ControlPlane::new();
    plane.register(TENANT_A, Policy::new().weight(1).quota(QUOTA_A));
    plane.register(TENANT_B, Policy::new().weight(1));
    let gate = Arc::new(Gate::default());
    let executions = Arc::new(AtomicU64::new(0));
    let engine = plugged_engine(&plane, &gate, &executions);

    let conn_a = engine.connect("qos").tenant(TENANT_A).establish().expect("A connects");
    let conn_b = engine.connect("qos").tenant(TENANT_B).establish().expect("B connects");
    let conn_plug = engine.connect("qos").tenant(TENANT_PLUG).establish().expect("plug connects");
    let req = read_request();

    // The plug: owns the lone worker until the gate opens, so the whole
    // backlog forms with the virtual clock parked — dwell is then a pure
    // function of drain position.
    let plug = conn_plug.submit(0, &req, &[]).expect("plug admitted");
    std::thread::sleep(Duration::from_millis(50));

    // Interleaved offered load, A at 10× B: ten A submissions per B
    // submission. A's overflow is refused at admission (its own quota).
    let mut tickets = Vec::new();
    let mut shed_seen = 0u64;
    for i in 0..OFFERED_A {
        match conn_a.submit(0, &req, &[]) {
            Ok(t) => tickets.push(t),
            Err(EngineError::Overloaded) => shed_seen += 1,
            Err(e) => panic!("unexpected A refusal: {e}"),
        }
        if i % 10 == 0 && i / 10 < OFFERED_B {
            tickets.push(conn_b.submit(0, &req, &[]).expect("B is never refused"));
        }
    }

    gate.open();
    plug.wait().expect("plug completes");
    for t in tickets {
        t.wait().expect("admitted calls complete");
    }

    let snap = engine.metrics().snapshot();
    let mean = |name: &str| snap.histogram(name).map(|h| h.mean()).unwrap_or(0);
    let run = QosRun {
        offered_a: OFFERED_A,
        admitted_a: snap.counter("tenant.1.admitted"),
        shed_a: snap.counter("tenant.1.shed"),
        admitted_b: snap.counter("tenant.2.admitted"),
        shed_b: snap.counter("tenant.2.shed"),
        served_b: snap.counter("tenant.2.served"),
        engine_shed: snap.counter("engine.shed"),
        b_dwell_p99_ns: dwell_ceiling(&snap, "tenant.2.dwell_ns"),
        b_dwell_mean_ns: mean("tenant.2.dwell_ns"),
        a_dwell_mean_ns: mean("tenant.1.dwell_ns"),
    };
    assert_eq!(run.shed_a, shed_seen, "engine and generator agree on A's sheds");
    engine.shutdown();
    run
}

/// One live-rebind run's ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebindRun {
    /// Tagged non-idempotent calls offered.
    pub calls: usize,
    /// Index before which the policy swap + rebind landed.
    pub rebind_at: usize,
    /// Handler executions (the plug excluded).
    pub executions: u64,
    /// Calls whose ticket failed (must be 0).
    pub lost: u64,
    /// Executions beyond one per call (must be 0).
    pub duplicated: u64,
    /// Rebinds the engine performed.
    pub rebinds: u64,
}

/// Rebind indices swept by the report gate — first, early, middle, last.
pub const REBIND_POINTS: [usize; 4] = [0, 8, 32, 63];
/// Tagged calls per rebind run.
pub const REBIND_CALLS: usize = 64;

/// Swaps tenant A's policy and re-negotiates the connection's combination
/// before tagged call `rebind_at` of `calls`, with the worker plugged so
/// the backlog is real, then drains and counts handler executions exactly.
pub fn rebind_under_load(rebind_at: usize, calls: usize) -> RebindRun {
    let plane = ControlPlane::new();
    let handle = plane.register(TENANT_A, Policy::new().weight(2).quota(2 * REBIND_CALLS));
    let gate = Arc::new(Gate::default());
    let executions = Arc::new(AtomicU64::new(0));
    let engine = plugged_engine(&plane, &gate, &executions);

    let conn = engine
        .connect("qos")
        .client(ClientInfo::of(&presentation()))
        .tenant(TENANT_A)
        .establish()
        .expect("connects");

    let req = read_request();
    let plug = conn.submit(0, &req, &[]).expect("plug admitted");
    std::thread::sleep(Duration::from_millis(50));

    let mut tickets = Vec::with_capacity(calls);
    for i in 0..calls {
        if i == rebind_at {
            // The two halves of a live operator action: retune the
            // tenant's share, then re-negotiate the combination. Neither
            // may disturb the queued backlog.
            handle.swap(Policy::new().weight(5).quota(2 * REBIND_CALLS));
            let mut pres = presentation();
            pres.trust = Trust::LeakyUnprotected;
            conn.rebind(&pres).expect("rebind succeeds");
        }
        let tag = CallTag::for_tenant(11, i as u64, TENANT_A);
        tickets.push(conn.submit_tagged(0, &req, &[], None, Some(tag)).expect("admitted"));
    }

    gate.open();
    plug.wait().expect("plug completes");
    let mut lost = 0u64;
    for t in tickets {
        if t.wait().is_err() {
            lost += 1;
        }
    }
    // The plug ran the handler once before any tagged call.
    let executed = executions.load(Ordering::SeqCst).saturating_sub(1);
    let run = RebindRun {
        calls,
        rebind_at,
        executions: executed,
        lost,
        duplicated: executed.saturating_sub(calls as u64),
        rebinds: engine.rebind_count(),
    };
    engine.shutdown();
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noisy_neighbor_holds_the_gated_bounds() {
        let r = noisy_neighbor();
        assert_eq!(r.admitted_a as usize, QUOTA_A);
        assert_eq!(r.shed_a as usize, OFFERED_A - QUOTA_A);
        assert_eq!(r.admitted_b as usize, OFFERED_B);
        assert_eq!(r.shed_b, 0, "A's storm must never be charged to B");
        assert_eq!(r.served_b as usize, OFFERED_B);
        assert_eq!(r.engine_shed, r.shed_a);
        assert!(
            r.b_dwell_p99_ns <= DWELL_BOUND_NS,
            "B's p99 dwell {} exceeds the bound {}",
            r.b_dwell_p99_ns,
            DWELL_BOUND_NS
        );
    }

    #[test]
    fn noisy_neighbor_is_deterministic() {
        assert_eq!(noisy_neighbor(), noisy_neighbor(), "sim-time runs must agree exactly");
    }

    #[test]
    fn rebind_under_load_is_exactly_once() {
        let r = rebind_under_load(8, 32);
        assert_eq!(r.lost, 0);
        assert_eq!(r.duplicated, 0);
        assert_eq!(r.executions, 32);
        assert_eq!(r.rebinds, 1);
    }
}
