#!/usr/bin/env bash
# The one command of flexrpc's benchmark: builds it in release, then runs it.
#
#   run.sh [--seed N] [--workload W] [--seconds S]   every workload, end to end
#   run.sh --traced [...]                            the separate traced run (per-layer numbers)
#   run.sh --smoke                                   both, with very short phases
#   run.sh compare A.json B.json                     apply BENCHMARK.json's bounds row by row
#   run.sh repeat [...]                              run everything twice and compare
#   run.sh --workload W --seed N --seconds S --trace 0|1
#                                                    one run; last line is its JSON result
#
# Works from any directory. Writes only under benchmark/ (out/ and target/),
# unless CARGO_TARGET_DIR says where to build.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"

# Build output goes to stderr: stdout carries results only.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

export FLEXRPC_BENCH_DIR="$here"
FLEXRPC_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
FLEXRPC_BENCH_COMMIT="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export FLEXRPC_BENCH_RUSTC FLEXRPC_BENCH_COMMIT

exec "$CARGO_TARGET_DIR/release/flexrpc-benchmark" "$@"
