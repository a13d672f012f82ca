#!/usr/bin/env bash
# The full local gate: formatting, lints, docs, every workspace test, the
# release re-runs of the timing-sensitive tests, every `report` experiment's
# gates once (through scripts/bench.sh, into target/report/) with the exact
# artifact compared byte for byte, the benchmark's tests and smoke run, and
# the examples. Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check ==" >&2
cargo fmt --all -- --check

# A metric's registry name lives in its subsystem's `instruments!`
# declaration, whose expansion is the only caller of the registry's adopt
# methods: an adoption anywhere else in library source is a hand-kept name
# list growing back.
echo "== metric names stay in declarations ==" >&2
if git grep -n -e 'adopt_counter(' -e 'adopt_histogram(' -- ':(glob)crates/*/src/**' \
  ':(glob)src/**' ':(exclude)crates/trace/src/**'; then
  echo "registry adoption outside an instruments! declaration (crates/trace/src/metrics.rs)" >&2
  exit 1
fi

echo "== cargo clippy (deny warnings) ==" >&2
cargo clippy --workspace --all-targets -- -D warnings

# Every intra-doc link must resolve and no public doc may link a private
# item: docs are how the next reader finds the one place a thing is done.
echo "== cargo doc (deny warnings) ==" >&2
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

# The document and surface checks ride here: crates/bench/tests/artifacts.rs
# (EXPERIMENTS.md's blocks, DESIGN.md's names) and tests/surface.rs.
echo "== cargo test ==" >&2
cargo test -q --workspace
# The stand-ins sit outside the workspace members, so `--workspace` skips
# their own tests; name them.
cargo test -q -p parking_lot -p proptest

# Re-runs in the profile the benchmark measures in (inlining, elided
# temporaries and thread timing all differ from debug):
echo "== release re-runs: allocation audits, executor oracle, reply cache, reply framing, hostile frames, fault matrix, engine timing, policy swaps, stripes, net, kernel, fault gate ==" >&2
cargo test -q --release -p flexrpc-runtime --test zero_alloc --test fuse_differential # warm-call allocation budgets; executor vs oracle, in-place and spilled programs
cargo test -q --release -p flexrpc-runtime --lib replycache # slab offsets: integer arithmetic that wraps silently in release
cargo test -q --release -p flexrpc-runtime --test reply_framing --test interop # a reply's head offset and patched record mark: length arithmetic that wraps silently in release
cargo test -q --release --test sunrpc_hostile_frames # odd-length records against both servers and both clients
cargo test -q --release --test conformance --test sunrpc_procedures # the engine worlds' retries, one-way sends, duplicate shadows and stalled handlers run on worker threads; one outcome on every world
cargo test -q --release -p flexrpc-engine --test zero_alloc_wait --test bind_alloc --test cell_reuse # queued round trip, bind; admission facts read out of a recycled cell
cargo test -q --release -p flexrpc-engine --lib slot # the interleaving sweeps: a fill racing a parking waiter lands in other bands in release
cargo test -q --release -p flexrpc-engine --test stress --test robustness --test helping_wait # wakes, shutdown, helping guards
cargo test -q --release -p flexrpc-engine --test qos --test path_parity # a tenant swap racing a cached admission; one path's spans and metrics
cargo test -q --release -p flexrpc-control # the policy cell's version and its cached copies
cargo test -q --release -p flexrpc-trace --test stripes # a striped read racing a stripe's drop
cargo test -q --release -p flexrpc-net # a link's message racing a handler re-registration
cargo test -q --release -p flexrpc-kernel # a counter read racing a connection's drop
cargo test -q --release -p flexrpc-clock # an arming racing the fault gate's unarmed load

# Every experiment once, each gate checked: exact gates (copy schedules,
# dispatch and probe counts, exactly-once tallies, sim-clock bounds,
# byte-identical replays) and the paper's shapes from paired rounds, written
# the way scripts/bench.sh writes the committed artifacts, but into target/.
# `report --json` exits 1 and writes nothing when a gate fails. The exact
# artifact must then reproduce byte for byte.
echo "== report --check, BENCH_exact.json reproduces ==" >&2
scripts/bench.sh target/report >/dev/null
cmp target/report/BENCH_exact.json BENCH_exact.json

# The benchmark is a package of its own (`benchmark/`, outside the
# workspace) that reaches flexrpc only through public APIs. Build it, run
# its tests and a very short pass of every workload here, so a public-API
# change that stops it compiling fails CI rather than the next measurement.
# Building it rewrites `benchmark/Cargo.lock` when a crate's dependencies
# moved since the lock was committed; the committed lock is put back on exit,
# so the run leaves the tree as it found it.
lock_copy=$(mktemp)
cp benchmark/Cargo.lock "$lock_copy"
trap 'cp "$lock_copy" benchmark/Cargo.lock; rm -f "$lock_copy"' EXIT
echo "== benchmark: cargo test --release ==" >&2
cargo test -q --release --manifest-path benchmark/Cargo.toml
echo "== benchmark: run.sh --smoke ==" >&2
bash benchmark/run.sh --smoke >/dev/null

# The examples are the documented API surface; an API redesign that
# breaks them must fail here, not in a reader's terminal. Every file under
# examples/ runs, so a new one cannot be left out.
for path in examples/*.rs; do
  ex=$(basename "$path" .rs)
  echo "== example: $ex ==" >&2
  cargo run -q --release --example "$ex" >/dev/null
done
