//! Deterministic thousand-host cluster simulation.
//!
//! The madsim-style outer layer over the workspace's simulation stack:
//! an open-loop load generator drives ~a thousand simulated client hosts
//! (each a supervised, at-most-once binding) against a replicated engine
//! group on one [`SimNet`], while a seeded fault [`Schedule`] — crash
//! storms, partitions, slow/lossy links, lost replies, restart waves —
//! fires at absolute sim times. Every run checks the fleet-wide
//! exactly-once invariants (no lost and no duplicated non-idempotent
//! execution), reports latency percentiles from log2 histograms, and
//! carries a deterministic trace ledger so a failing seed replays
//! byte-identically.
//!
//! Everything in here runs on virtual time: a whole storm over thousands
//! of calls completes in milliseconds of real time and produces exactly
//! the same numbers on every machine.

mod schedule;

pub use schedule::{EventKind, Schedule, ScheduleEvent};

use flexrpc_clock::{splitmix64, Fault, FaultInjector};
use flexrpc_core::present::InterfacePresentation;
use flexrpc_core::program::CompiledInterface;
use flexrpc_core::value::Value;
use flexrpc_engine::{expose_on_net, ClientInfo, Engine};
use flexrpc_marshal::WireFormat;
use flexrpc_net::{HostId, NetConfig, SimNet};
use flexrpc_runtime::transport::SunRpc;
use flexrpc_runtime::{CallOptions, ClientStub, ErrorKind, ReplyCache, Supervisor};
use flexrpc_trace::{CallTrace, Histogram, HistogramSnapshot, JsonLinesSink, Stage};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The Sun RPC program number the replica group serves.
const CLUSTER_PROG: u32 = 900_001;
const CLUSTER_VERS: u32 = 1;

/// Sizing and timing knobs for one cluster run.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Simulated client hosts, each with its own supervised binding.
    pub clients: usize,
    /// Engine replicas in the group (each on its own host, sharing one
    /// at-most-once reply cache).
    pub replicas: usize,
    /// Non-idempotent calls the open-loop generator issues.
    pub calls: usize,
    /// Open-loop interarrival gap, sim ns (arrival `i` is at
    /// `i × interarrival_ns` regardless of service progress).
    pub interarrival_ns: u64,
    /// Reply-cache TTL for the group's shared at-most-once state.
    pub amo_ttl: Duration,
    /// The fabric. Defaults to a modern profile (gigabit-class, µs-scale
    /// packets) rather than the 10 Mbit default, so a thousand hosts'
    /// calls fit a short horizon.
    pub net: NetConfig,
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig {
            clients: 1024,
            replicas: 3,
            calls: 4096,
            interarrival_ns: 40_000,
            amo_ttl: Duration::from_secs(600),
            net: NetConfig {
                bandwidth_bps: 125_000_000, // 1 Gbit
                per_packet_ns: 2_000,
                mtu: 1500,
                server_ns: 20_000,
            },
        }
    }
}

impl ClusterConfig {
    /// A scaled-down profile for unit and property tests: the same
    /// machinery, a fraction of the wall-clock cost.
    pub fn small() -> ClusterConfig {
        ClusterConfig { clients: 64, replicas: 3, calls: 512, ..ClusterConfig::default() }
    }
}

/// Everything one seeded run produced: outcome counts, the invariant
/// tallies, latency percentiles, and the deterministic trace ledger.
/// `PartialEq` over the whole struct is the replay check — two runs of
/// the same seed must compare equal, and their `trace` strings must be
/// byte-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterRun {
    pub seed: u64,
    /// Events the schedule compiled to.
    pub events: usize,
    /// Calls issued / completed Ok / failed (failures are availability
    /// loss under full outages, not safety violations).
    pub calls: u64,
    pub ok: u64,
    pub failed: u64,
    /// Invariant: calls the client saw complete that no replica executed
    /// (or whose reply was torn). Must be 0.
    pub lost: u64,
    /// Invariant: non-idempotent calls executed more than once across
    /// the group. Must be 0 — the shared reply cache plus tagged
    /// failover replays is what keeps it 0.
    pub duplicated: u64,
    /// Replays the group's shared cache suppressed (how often the
    /// duplicate window was actually exercised).
    pub suppressions: u64,
    /// Supervisor failover replays across the fleet.
    pub failovers: u64,
    /// Call-latency percentiles, sim ns (log2-bucket ceilings).
    pub p50_ns: u64,
    pub p99_ns: u64,
    /// Final sim clock and accumulated wire time.
    pub elapsed_ns: u64,
    pub wire_ns: u64,
    /// The full latency histogram the percentiles came from.
    pub latency: HistogramSnapshot,
    /// JSON-lines trace ledger: one `transport` span per logical call,
    /// detail = `(call_index << 8) | outcome_code`. Byte-identical
    /// across replays of the same seed.
    pub trace: String,
}

impl ClusterRun {
    /// The exactly-once invariant check: empty when the run is clean,
    /// one message per violated invariant otherwise.
    pub fn invariant_failures(&self) -> Vec<String> {
        let mut failures = Vec::new();
        if self.lost > 0 {
            failures.push(format!(
                "seed {}: {} call(s) completed at the client but never executed",
                self.seed, self.lost
            ));
        }
        if self.duplicated > 0 {
            failures.push(format!(
                "seed {}: {} non-idempotent call(s) executed more than once",
                self.seed, self.duplicated
            ));
        }
        if self.ok == 0 {
            failures
                .push(format!("seed {}: no call completed — the fleet never served", self.seed));
        }
        failures
    }
}

/// A percentile from a log2-bucket snapshot: the ceiling of the bucket
/// where the cumulative count first reaches `q` of the total (so the
/// value is an upper bound on the true percentile). 0 for an empty
/// histogram; `q` is clamped to (0, 1].
pub fn percentile(h: &HistogramSnapshot, q: f64) -> u64 {
    if h.count == 0 {
        return 0;
    }
    let q = q.clamp(f64::MIN_POSITIVE, 1.0);
    let rank = ((q * h.count as f64).ceil() as u64).max(1);
    let mut cum = 0u64;
    for &(floor, n) in &h.buckets {
        cum += n;
        if cum >= rank {
            return if floor == 0 { 1 } else { floor.saturating_mul(2) };
        }
    }
    h.buckets.last().map_or(0, |&(floor, _)| if floor == 0 { 1 } else { floor.saturating_mul(2) })
}

fn counter_module() -> flexrpc_core::ir::Module {
    flexrpc_idl::corba::parse(
        "cluster",
        r#"
        interface Ledger {
            unsigned long record(in unsigned long idx);
        };
        "#,
    )
    .expect("cluster IDL parses")
}

fn presentation(m: &flexrpc_core::ir::Module) -> InterfacePresentation {
    let iface = m.interface("Ledger").expect("declared");
    InterfacePresentation::default_for(m, iface).expect("defaults")
}

fn compile(m: &flexrpc_core::ir::Module) -> CompiledInterface {
    let iface = m.interface("Ledger").expect("declared");
    CompiledInterface::compile(m, iface, &presentation(m)).expect("compiles")
}

/// Outcome code for the trace ledger's detail word.
fn outcome_code(outcome: &Result<u32, flexrpc_runtime::RpcError>) -> u64 {
    match outcome {
        Ok(_) => 0,
        Err(e) => match e.kind() {
            ErrorKind::Disconnected => 1,
            ErrorKind::DeadlineExceeded => 2,
            ErrorKind::Overloaded => 3,
            ErrorKind::Retryable => 4,
            ErrorKind::Cancelled => 5,
            ErrorKind::ContractViolation => 6,
            ErrorKind::Fatal => 7,
        },
    }
}

/// Applies one schedule event to the live fleet.
fn apply_event(
    net: &Arc<SimNet>,
    replica_hosts: &[HostId],
    replica_faults: &[Arc<FaultInjector>],
    ev: &ScheduleEvent,
) {
    let now = net.clock().now_ns();
    match ev.kind {
        EventKind::CrashReplica { replica, restart_after_ns } => {
            replica_faults[replica % replica_faults.len()]
                .crash(Some(now.saturating_add(restart_after_ns)));
        }
        EventKind::CrashStorm { restart_after_ns } => {
            for f in replica_faults {
                f.crash(Some(now.saturating_add(restart_after_ns)));
            }
        }
        EventKind::PartitionReplica { replica, heal_after_ns } => {
            let host = replica_hosts[replica % replica_hosts.len()];
            net.faults().partition(
                FaultInjector::ANY,
                host.raw(),
                now.saturating_add(heal_after_ns),
            );
        }
        EventKind::SlowLinkWindow { factor, duration_ns } => {
            net.faults().set_slow_link(factor, now.saturating_add(duration_ns));
        }
        EventKind::LoseReply { replica } => {
            replica_faults[replica % replica_faults.len()].on_next_call(Fault::Close);
        }
        EventKind::DropBurst { replica, count } => {
            let f = &replica_faults[replica % replica_faults.len()];
            for j in 0..count {
                f.on_nth_call(j, Fault::Drop);
            }
        }
        EventKind::RestartWave => {
            for f in replica_faults {
                f.restore();
            }
            net.faults().heal_all();
            // Expire any slow-link window immediately.
            net.faults().set_slow_link(1, 0);
        }
    }
}

/// Runs one seeded schedule against a freshly built fleet and returns
/// the full result. Deterministic: the same `(cfg, seed)` produces an
/// identical [`ClusterRun`], byte-identical trace included.
pub fn run_seed(cfg: &ClusterConfig, seed: u64) -> ClusterRun {
    let schedule = Schedule::compile(seed, cfg);
    let net = SimNet::with_config(cfg.net);

    // ---- The replica group: engines on their own hosts, one shared
    // at-most-once reply cache (the group-membership primitive that
    // closes the cross-server duplicate window).
    let replica_hosts: Vec<HostId> =
        (0..cfg.replicas).map(|r| net.add_host(&format!("replica-{r}"))).collect();
    let replica_faults: Vec<Arc<FaultInjector>> =
        replica_hosts.iter().map(|&h| net.host_faults(h).expect("host exists")).collect();
    let exec_counts: Arc<Vec<AtomicU64>> =
        Arc::new((0..cfg.calls).map(|_| AtomicU64::new(0)).collect());
    let shared_cache = ReplyCache::new(Arc::clone(net.clock()), cfg.amo_ttl);
    let module = counter_module();
    let pres = presentation(&module);
    let engines: Vec<Arc<Engine>> = replica_hosts
        .iter()
        .map(|&host| {
            let engine = Engine::builder()
                .workers(1)
                .clock(Arc::clone(net.clock()))
                .shared_reply_cache(Arc::clone(&shared_cache))
                .build();
            let ex = Arc::clone(&exec_counts);
            engine
                .register_service(
                    "ledger",
                    module.clone(),
                    "Ledger",
                    pres.clone(),
                    WireFormat::Cdr,
                    move |srv| {
                        let ex = Arc::clone(&ex);
                        srv.on("record", move |call| {
                            // Deliberately non-idempotent: every
                            // execution is tallied against the call
                            // index it carries.
                            let idx = call.u32("idx").expect("idx") as usize;
                            if let Some(slot) = ex.get(idx) {
                                slot.fetch_add(1, Ordering::SeqCst);
                            }
                            let reply = (idx as u32).wrapping_add(1);
                            call.set("return", Value::U32(reply)).expect("return");
                            0
                        })
                        .expect("registers");
                    },
                )
                .expect("service registers");
            expose_on_net(
                &engine,
                &net,
                host,
                "ledger",
                CLUSTER_PROG,
                CLUSTER_VERS,
                ClientInfo::of(&pres),
            )
            .expect("exposes");
            engine
        })
        .collect();

    // ---- The client fleet: one supervised at-most-once binding per
    // simulated host, endpoint order rotated per client so load (and
    // failover pressure) spreads across the group.
    let compiled = compile(&module);
    let mut supervisors: Vec<Supervisor> = (0..cfg.clients)
        .map(|c| {
            let client_host = net.add_host(&format!("client-{c}"));
            let mut builder = Supervisor::builder();
            for k in 0..cfg.replicas {
                let to = replica_hosts[(c + k) % cfg.replicas];
                let net = Arc::clone(&net);
                let compiled = compiled.clone();
                builder = builder.endpoint(move || {
                    let t =
                        SunRpc::new(Arc::clone(&net), client_host, to, CLUSTER_PROG, CLUSTER_VERS);
                    Ok(ClientStub::new(compiled.clone(), WireFormat::Cdr, Box::new(t)))
                });
            }
            let mut sup = builder.connect().expect("replica group reachable at start");
            sup.stub_mut().enable_at_most_once();
            sup
        })
        .collect();

    // ---- The open-loop driver: arrivals at i × interarrival_ns; the
    // schedule's due events fire between calls. Single-threaded, every
    // time charge lands on the shared sim clock — fully deterministic.
    let mut trace = CallTrace::sim(cfg.calls.max(1), Arc::clone(net.clock()));
    let latency = Histogram::detached();
    let mut outcomes_ok: Vec<bool> = Vec::with_capacity(cfg.calls);
    let (mut ok, mut failed, mut lost) = (0u64, 0u64, 0u64);
    let mut next_event = 0usize;
    let options = CallOptions::default();
    for i in 0..cfg.calls {
        let arrival = (i as u64) * cfg.interarrival_ns;
        let now = net.clock().now_ns();
        if now < arrival {
            net.clock().advance_ns(arrival - now);
        }
        while next_event < schedule.events.len()
            && schedule.events[next_event].at_ns <= net.clock().now_ns()
        {
            apply_event(&net, &replica_hosts, &replica_faults, &schedule.events[next_event]);
            next_event += 1;
        }
        let client = (splitmix64(seed ^ (0xC1157E5 + i as u64)) % cfg.clients as u64) as usize;
        let sup = &mut supervisors[client];
        let start = net.clock().now_ns();
        let mut frame = sup.new_frame("record").expect("frame");
        frame[0] = Value::U32(i as u32);
        let outcome = sup
            .call_with("record", &mut frame, &options)
            .map(|_| frame[1].as_u32().expect("return"));
        let end = net.clock().now_ns();
        latency.record(end.saturating_sub(start));
        let torn = matches!(outcome, Ok(v) if v != (i as u32).wrapping_add(1));
        match &outcome {
            Ok(_) if torn => {
                lost += 1;
                failed += 1;
                outcomes_ok.push(false);
            }
            Ok(_) => {
                ok += 1;
                outcomes_ok.push(true);
            }
            Err(_) => {
                failed += 1;
                outcomes_ok.push(false);
            }
        }
        let call_id = trace.begin_call();
        trace.record(
            call_id,
            Stage::Transport,
            start,
            end,
            ((i as u64) << 8) | outcome_code(&outcome),
        );
    }

    // ---- Fleet-wide invariants: every Ok call executed at least once;
    // no call executed more than once, whatever the client saw.
    let mut duplicated = 0u64;
    for (i, &client_ok) in outcomes_ok.iter().enumerate() {
        let executions = exec_counts[i].load(Ordering::SeqCst);
        if client_ok && executions == 0 {
            lost += 1;
        }
        if executions > 1 {
            duplicated += 1;
        }
    }
    let failovers: u64 = supervisors.iter().map(|s| s.stats().replays).sum();
    let suppressions = shared_cache.stats().suppressions;
    for engine in &engines {
        engine.shutdown();
    }

    let snapshot = latency.snapshot();
    let mut sink = JsonLinesSink::new();
    trace.export(seed, &mut sink);
    ClusterRun {
        seed,
        events: schedule.events.len(),
        calls: cfg.calls as u64,
        ok,
        failed,
        lost,
        duplicated,
        suppressions,
        failovers,
        p50_ns: percentile(&snapshot, 0.50),
        p99_ns: percentile(&snapshot, 0.99),
        elapsed_ns: net.clock().now_ns(),
        wire_ns: net.wire_ns(),
        latency: snapshot,
        trace: sink.into_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_walks_log2_buckets() {
        let h = Histogram::detached();
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert!(percentile(&snap, 0.5) >= 3);
        assert!(percentile(&snap, 0.99) >= 1000);
        assert_eq!(
            percentile(&HistogramSnapshot { count: 0, sum: 0, buckets: Vec::new() }, 0.5),
            0
        );
    }

    #[test]
    fn schedule_compiles_sorted_and_deterministic() {
        let cfg = ClusterConfig::small();
        let a = Schedule::compile(7, &cfg);
        let b = Schedule::compile(7, &cfg);
        assert_eq!(a, b, "same seed, same schedule");
        assert!(a.events.len() >= 4);
        assert!(a.events.windows(2).all(|w| w[0].at_ns <= w[1].at_ns), "sorted by fire time");
        let c = Schedule::compile(8, &cfg);
        assert_ne!(a.events, c.events, "different seeds diverge");
    }
}
