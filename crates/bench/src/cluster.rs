//! CLUSTER experiment: the thousand-host deterministic cluster sim.
//!
//! Drives [`flexrpc_cluster`] over a fixed seed matrix at full scale —
//! ~a thousand simulated client hosts against a three-replica engine
//! group sharing one at-most-once reply cache — and exposes the pieces
//! the `report cluster` figure needs: the matrix runner, the replay
//! verifier (same seed, byte-identical trace), and the latency bound the
//! `--check` gate holds p99 to.

pub use flexrpc_cluster::{percentile, run_seed, ClusterConfig, ClusterRun, Schedule};

/// The seed matrix `report cluster` sweeps: 1..=SEEDS.
pub const SEEDS: u64 = 16;

/// Client hosts / replicas / calls at full scale (the acceptance bar is
/// ≥1000 hosts and a ≥3-replica group).
pub const CLIENTS: usize = 1024;
pub(crate) const REPLICAS: usize = 3;
pub const CALLS: usize = 4096;

/// The recorded p99 dwell bound, sim ns. A healthy small call on the
/// gigabit profile round-trips in ~30 µs; storms add failover walks
/// (each a wire round-trip per probed replica) and slow-link windows
/// multiply wire time up to 8×. The worst p99 across the fixed matrix is
/// 65,536 ns (one log2 bucket above healthy), and the matrix is
/// deterministic, so 1 ms is ~15× headroom while still catching any
/// change that introduces an unbounded retry or a runaway stall.
pub const P99_BOUND_NS: u64 = 1_000_000;

/// The full-scale configuration every `report cluster` run uses.
pub fn config() -> ClusterConfig {
    ClusterConfig { clients: CLIENTS, replicas: REPLICAS, calls: CALLS, ..ClusterConfig::default() }
}

/// Runs one seed at full scale.
pub fn run(seed: u64) -> ClusterRun {
    run_seed(&config(), seed)
}

/// Replays `seed` from scratch and reports whether the second fleet
/// reproduced the first run exactly — metrics ledger equal and trace
/// bytes identical. The tuple is (metrics_equal, trace_identical).
pub fn replay(first: &ClusterRun) -> (bool, bool) {
    let second = run_seed(&config(), first.seed);
    (second == *first, second.trace.as_bytes() == first.trace.as_bytes())
}

/// The command line that reproduces one seed, printed when a seed fails
/// so the failure is one copy-paste away from a debugger.
pub fn replay_command(seed: u64) -> String {
    format!("cargo run --release -p flexrpc-bench --bin report -- cluster --seed {seed}")
}

#[cfg(test)]
mod tests {
    use super::*;

    // SEEDS is a const, but the assertion documents the acceptance floor
    // the matrix must keep clearing if anyone retunes it.
    #[allow(clippy::assertions_on_constants)]
    #[test]
    fn full_scale_config_meets_the_acceptance_floor() {
        let cfg = config();
        assert!(cfg.clients >= 1000, "at least a thousand simulated hosts");
        assert!(cfg.replicas >= 3, "at least a three-replica group");
        assert!(SEEDS >= 16, "at least sixteen seeded schedules");
    }
}
