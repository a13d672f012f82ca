#!/usr/bin/env bash
# The full local gate: formatting, lints, docs, and every workspace test.
# Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check ==" >&2
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) ==" >&2
cargo clippy --workspace --all-targets -- -D warnings

# Every intra-doc link must resolve and no public doc may link a private
# item: docs are how the next reader finds the one place a thing is done.
echo "== cargo doc (deny warnings) ==" >&2
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "== cargo test ==" >&2
cargo test -q --workspace

# The allocation audits again (the engine's includes the warm queued round
# trip: zero allocations on the submitting thread), in the profile the
# benchmark counts `allocs_per_op` in: inlining and elided temporaries
# differ from debug, so a budget that holds there proves nothing here.
echo "== allocation audits (release) ==" >&2
cargo test -q --release -p flexrpc-runtime --test zero_alloc
cargo test -q --release -p flexrpc-engine --test zero_alloc_wait

# Which submit meets which parked worker, and who drops the last engine
# handle, is timing: the wake-liveness stress and the self-join regression
# run at release timing too.
echo "== engine stress + robustness (release) ==" >&2
cargo test -q --release -p flexrpc-engine --test stress --test robustness

# Criterion benches must at least compile — they share drivers with the
# report binary, so a drifted API breaks here instead of at bench time.
echo "== cargo bench --no-run ==" >&2
cargo bench --no-run -q

# The specialization gate: fused programs must dispatch less and run at
# least as fast as the threaded interpreter on both measured transports.
echo "== report fuse --check ==" >&2
cargo run -q --release -p flexrpc-bench --bin report -- fuse --check

# The failure-model gate: under a reply-loss storm every retried call is
# answered from the reply cache (zero duplicate executions), and supervised
# failover recovers within its deterministic sim-time bound.
echo "== report failover --check ==" >&2
cargo run -q --release -p flexrpc-bench --bin report -- failover --check

# The observability gate: two identical sim runs export byte-identical
# trace streams, and tracing a same-domain call costs at most 5%.
echo "== report trace --check ==" >&2
cargo run -q --release -p flexrpc-bench --bin report -- trace --check

# The streaming gate: credit stalls are deterministic and hit their
# closed-form prediction, and no frame is lost or duplicated when replies
# are dropped mid-stream (at-most-once holds for [stream] and callbacks).
echo "== report stream --check ==" >&2
cargo run -q --release -p flexrpc-bench --bin report -- stream --check

# The multi-tenant QoS gate: a 10× noisy neighbor cannot move the victim
# tenant's p99 queue dwell past its weighted-fair bound (the offender's
# excess is shed against its own quota), and a live policy swap plus
# combination rebind on a loaded connection loses and duplicates nothing.
echo "== report qos --check ==" >&2
cargo run -q --release -p flexrpc-bench --bin report -- qos --check

# The shard-scaling gate: blocking throughput must not regress as workers
# grow from one to the core count (per-core shards + inline dispatch may
# not cost what they buy), and the 8-worker same-domain cell must clear
# the absolute calls/s floor recorded in the experiment.
echo "== report scale --check ==" >&2
cargo run -q --release -p flexrpc-bench --bin report -- scale --check

# The cluster gate: across the 16-seed fault-schedule matrix (1024 hosts
# against a 3-replica group sharing one reply cache) no non-idempotent
# call is lost or duplicated, p99 dwell stays under its recorded bound,
# and a seed replayed from scratch reproduces byte-identical traces.
echo "== report cluster --check ==" >&2
cargo run -q --release -p flexrpc-bench --bin report -- cluster --check

# The benchmark is a package of its own (`benchmark/`, outside the
# workspace) that reaches flexrpc only through public APIs. Build it, run
# its tests and a very short pass of every workload here, so a public-API
# change that stops it compiling fails CI rather than the next measurement.
echo "== benchmark: cargo test --release ==" >&2
cargo test -q --release --manifest-path benchmark/Cargo.toml
echo "== benchmark: run.sh --smoke ==" >&2
bash benchmark/run.sh --smoke >/dev/null

# The examples are the documented API surface; an API redesign that
# breaks them must fail here, not in a reader's terminal.
for ex in quickstart codegen_dump nfs_read pipe_throughput trust_matrix trace_failover edit_feed; do
  echo "== example: $ex ==" >&2
  cargo run -q --release --example "$ex" >/dev/null
done
