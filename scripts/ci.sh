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

# The allocation audits again (the runtime's include the kernel transport
# — one reply per warm call, sized to its operation; the engine's the warm
# queued round trip — `submit` allocates nothing, the round trip two per
# call on whichever thread ran it — and the
# bind path: a warm establish or rebind allocates nothing, text to
# compiled program exactly what it keeps), in the profile the benchmark counts
# `allocs_per_op` in: inlining and elided temporaries differ from debug,
# so a budget that holds there proves nothing here.
echo "== allocation audits (release) ==" >&2
cargo test -q --release -p flexrpc-runtime --test zero_alloc
cargo test -q --release -p flexrpc-engine --test zero_alloc_wait --test bind_alloc

# Which submit meets which parked worker, which waiter reaches its own job
# before the worker does, who drops the last engine handle, and which read
# of a striped counter meets which stripe's drop is timing: the
# wake-liveness stress, the self-join regression, the helping wait's three
# guards, the engine's tallies under fire and the trace crate's stripe test
# run at release timing too. So is which message of a link meets which re-registration
# of the handler it resolved, and which read of a kernel counter meets
# which connection's drop (a connection writes its counts through stripes
# of its own): the net and kernel crates' tests run here as well.
echo "== engine stress + robustness, stripes, net links, kernel IPC (release) ==" >&2
cargo test -q --release -p flexrpc-engine --test stress --test robustness --test helping_wait
cargo test -q --release -p flexrpc-trace --test stripes
cargo test -q --release -p flexrpc-net
cargo test -q --release -p flexrpc-kernel

# Every experiment's gates, in one process: exact gates (copy schedules,
# dispatch and probe counts, exactly-once tallies, sim-clock bounds,
# byte-identical replays) and the paper's shapes from paired rounds.
# Every experiment runs and every failed gate is listed before the exit.
echo "== report --check ==" >&2
cargo build -q --release -p flexrpc-bench --bin report
./target/release/report --check >/dev/null

# The exact artifact must reproduce byte for byte: regenerate it the way
# scripts/bench.sh does and compare with the committed file.
echo "== BENCH_exact.json reproduces ==" >&2
exact=target/BENCH_exact.regenerated.json
./target/release/report failover stream qos cluster trace fuse \
  --check --json "$exact" >/dev/null
cmp "$exact" BENCH_exact.json

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
