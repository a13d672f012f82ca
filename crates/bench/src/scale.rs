//! Shard scaling — one serving engine under both call models, as workers
//! sweep.
//!
//! Two phases per worker count, one engine each:
//!
//! * **Blocking** — synchronous `read` calls from concurrent clients, all
//!   program combinations resolved through the engine's shared cache
//!   (clients alternate trust levels, so a cell resolves two). With no
//!   deadline and no backlog these dispatch *inline* on the caller's
//!   thread (LRPC-style: no queue, no worker handoff), which is why this
//!   phase's throughput does not vary with workers — and why the gate is
//!   the exact one: every blocking call took the inline path.
//! * **Pipelined** — each client submits tagged batches (distinct tenants,
//!   so their lanes hash to different home shards) and then waits, keeping
//!   every shard's queue busy at once. The cell exercises the cross-shard
//!   path — work stealing shows up in `engine.steals` whenever an idle
//!   shard drains a loaded peer, and `engine.helped` counts the calls a
//!   waiting client ran itself because its own job was next on a shard
//!   nobody was serving; how often either happens is scheduling, so both
//!   are recorded, not gated.
//!
//! Calls per second are printed for the reader only; the numbers that
//! carry a bound are `benchmark/`'s `engine_inline` and `engine_pipelined`.

use flexrpc_core::present::{InterfacePresentation, Trust};
use flexrpc_core::program::CompiledInterface;
use flexrpc_core::value::Value;
use flexrpc_engine::{ClientInfo, Engine};
use flexrpc_marshal::WireFormat;
use flexrpc_pipes::fileio_module;
use flexrpc_runtime::policy::CallTag;
use flexrpc_runtime::{ClientStub, TenantId};
use std::sync::Arc;

/// Worker-pool sizes swept (fixed, so row names do not depend on the box).
pub const WORKERS: [usize; 3] = [1, 4, 8];
/// Concurrent client threads per cell.
pub const CLIENTS: usize = 4;
/// Blocking calls per client per cell (report binary).
pub const CALLS_PER_CLIENT: usize = 2_000;
/// Pipelined batches per client and calls per batch.
pub const BATCHES: usize = 25;
pub const BATCH: usize = 32;
/// Reply payload bytes per call.
pub(crate) const READ_SIZE: usize = 1024;
/// Seed for the deterministic client interleave schedule: every run of a
/// cell yields at the same seeded call indices, so the worker/client
/// interleave is the same schedule run to run instead of whatever the OS
/// happened to do.
pub(crate) const SEED: u64 = 0x5EED_C0DE;

/// One worker count's measured cell.
#[derive(Debug, Clone, Copy)]
pub struct ScaleRun {
    /// Workers (= shards) in the engine.
    pub workers: usize,
    /// Blocking (inline-eligible) calls per second across all clients.
    pub blocking_cps: f64,
    /// Pipelined (queued, tagged) calls per second across all clients.
    pub pipelined_cps: f64,
    /// Calls served inline on caller threads (blocking phase).
    pub inline_calls: u64,
    /// Program-cache hit rate at the end of the blocking phase.
    pub cache_hit_rate: f64,
    /// Programs compiled in the blocking phase (distinct combinations).
    pub compilations: u64,
    /// Connections the blocking phase established.
    pub connections: u64,
    /// Jobs idle shards stole from loaded peers (pipelined phase).
    pub steals: u64,
    /// Queued calls their own waiting client ran (pipelined phase).
    pub helped: u64,
}

/// Starts an engine with `workers` workers serving an `echo` FileIO
/// service whose `read` returns `count` fresh bytes.
pub(crate) fn build_engine(workers: usize) -> Arc<Engine> {
    let engine = Engine::builder().workers(workers).queue_depth(4 * workers.max(1)).build();
    engine
        .register_service(
            "echo",
            fileio_module(),
            "FileIO",
            client_presentation(Trust::None),
            WireFormat::Cdr,
            |srv| {
                srv.on("read", |call| {
                    let count = call.u32("count").expect("count arg") as usize;
                    call.set("return", Value::Bytes(vec![0u8; count])).expect("set");
                    0
                })
                .expect("read registers");
            },
        )
        .expect("service registers");
    engine
}

fn client_presentation(trust: Trust) -> InterfacePresentation {
    let m = fileio_module();
    let iface = m.interface("FileIO").expect("FileIO exists");
    let mut pres = InterfacePresentation::default_for(&m, iface).expect("defaults");
    pres.trust = trust;
    pres
}

/// Builds one connected client stub; even/odd clients use different trust,
/// so runs with ≥2 clients resolve two program combinations.
pub fn client(engine: &Arc<Engine>, index: usize) -> ClientStub {
    let trust = if index.is_multiple_of(2) { Trust::None } else { Trust::Leaky };
    let pres = client_presentation(trust);
    let conn = engine.connect("echo").client(ClientInfo::of(&pres)).establish().expect("connect");
    let m = fileio_module();
    let iface = m.interface("FileIO").expect("FileIO exists");
    let compiled = CompiledInterface::compile(&m, iface, &pres).expect("compiles");
    ClientStub::new(compiled, WireFormat::Cdr, Box::new(conn))
}

/// `splitmix64` step — the repo's stock seedable generator (no rand dep).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `calls` synchronous reads on each of `clients` pre-built stubs,
/// concurrently; returns when every client finished.
///
/// Each client yields the CPU at call indices drawn from a per-client
/// stream seeded by `SEED` — a fixed interleave schedule, so repeated
/// runs of a cell contend at the same points instead of wherever the OS
/// scheduler happened to preempt.
pub(crate) fn drive(stubs: Vec<ClientStub>, calls: usize) {
    let handles: Vec<_> = stubs
        .into_iter()
        .enumerate()
        .map(|(index, mut stub)| {
            std::thread::spawn(move || {
                let mut rng = SEED ^ (index as u64).wrapping_mul(0xA076_1D64_78BD_642F);
                let mut frame = stub.new_frame("read").expect("frame");
                for _ in 0..calls {
                    frame[0] = Value::U32(READ_SIZE as u32);
                    stub.call("read", &mut frame).expect("call succeeds");
                    if splitmix(&mut rng).is_multiple_of(8) {
                        std::thread::yield_now();
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client ok");
    }
}

/// Marshals one `read(READ_SIZE)` request in the service's wire format.
fn read_request() -> Vec<u8> {
    let mut w = flexrpc_runtime::wire::AnyWriter::new(WireFormat::Cdr);
    w.put_u32(READ_SIZE as u32);
    w.into_bytes()
}

/// Pipelined phase: every client floods its own tenant's lane with tagged
/// batches, all lanes live at once so shards that drain early steal from
/// the ones still loaded. Returns total completed calls.
fn drive_pipelined(engine: &Arc<Engine>, clients: usize) -> usize {
    let pres = client_presentation(Trust::None);
    let request = Arc::new(read_request());
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let conn =
                engine.connect("echo").client(ClientInfo::of(&pres)).establish().expect("connect");
            let request = Arc::clone(&request);
            std::thread::spawn(move || {
                let op_index = conn.program().op("read").expect("read op").index;
                let mut seq = 0u64;
                for _ in 0..BATCHES {
                    let tickets: Vec<_> = (0..BATCH)
                        .map(|_| {
                            seq += 1;
                            let tag =
                                CallTag::for_tenant(c as u64 + 1, seq, TenantId(c as u64 + 1));
                            conn.submit_tagged(op_index, &request, &[], None, Some(tag))
                                .expect("submit")
                        })
                        .collect();
                    for t in tickets {
                        t.wait().expect("pipelined call succeeds");
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client ok");
    }
    clients * BATCHES * BATCH
}

/// One full cell: blocking phase, then pipelined phase, on fresh engines.
pub fn run(workers: usize, clients: usize, calls_per_client: usize) -> ScaleRun {
    // Blocking (inline) phase.
    let engine = build_engine(workers);
    let stubs: Vec<_> = (0..clients).map(|i| client(&engine, i)).collect();
    let t0 = std::time::Instant::now();
    drive(stubs, calls_per_client);
    let blocking_elapsed = t0.elapsed().as_secs_f64();
    let blocking = engine.stats();
    assert_eq!(blocking.calls_served as usize, clients * calls_per_client);
    let compilations = engine.cache().compilations();
    engine.shutdown();

    // Pipelined (queued, cross-shard) phase.
    let engine = build_engine(workers);
    let t0 = std::time::Instant::now();
    let completed = drive_pipelined(&engine, clients);
    let pipelined_elapsed = t0.elapsed().as_secs_f64();
    let stats = engine.stats();
    assert_eq!(stats.calls_served as usize, completed);
    engine.shutdown();

    ScaleRun {
        workers,
        blocking_cps: (clients * calls_per_client) as f64 / blocking_elapsed,
        pipelined_cps: completed as f64 / pipelined_elapsed,
        inline_calls: blocking.inline_calls,
        cache_hit_rate: blocking.cache_hit_rate(),
        compilations,
        connections: blocking.connections,
        steals: stats.steals,
        helped: stats.calls_helped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocking_phase_runs_inline() {
        let r = run(2, 2, 50);
        assert!(r.blocking_cps > 0.0 && r.pipelined_cps > 0.0);
        assert_eq!(r.inline_calls, 2 * 50, "no-deadline blocking calls all dispatch inline");
    }

    #[test]
    fn every_cell_completes_and_shares_programs() {
        for workers in [1, 4] {
            for clients in [1, 8] {
                let r = run(workers, clients, 20);
                assert!(r.compilations <= 2, "at most two combinations");
                if clients > 2 {
                    assert!(
                        r.compilations < r.connections,
                        "cache must share programs across connections"
                    );
                    assert!(r.cache_hit_rate > 0.0);
                }
            }
        }
    }
}
