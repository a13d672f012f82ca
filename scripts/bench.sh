#!/usr/bin/env bash
# Runs every experiment of the `report` binary once, each gate checked, and
# writes the two artifacts into DIR (default: the repo root):
#
#   BENCH_exact.json — counters, sim-clock nanoseconds and byte-identical
#                      replays (failover, stream, cluster, trace, fuse):
#                      the same bytes on every run, which scripts/ci.sh
#                      checks with `cmp`
#   BENCH_paper.json — the paper's figures and ablations as exact copy
#                      schedules plus shapes from paired rounds
#
# `report --json` writes nothing unless every gate holds, so neither file
# can contradict the bounds recorded in it, and in the same step it rewrites
# the `<!-- report:NAME -->` blocks of the EXPERIMENTS.md beside the file it
# wrote, so the document cannot contradict the artifact
# (crates/bench/tests/artifacts.rs checks both). Written into the repo
# root, that is the committed EXPERIMENTS.md; written anywhere else, no
# document is touched. Wall-clock throughput and latency are not here:
# `benchmark/run.sh` measures those.
#
# Usage: scripts/bench.sh [DIR]   (run from anywhere inside the repo)
set -euo pipefail
cd "$(dirname "$0")/.."
out=${1:-.}
mkdir -p "$out"

cargo build -q --release -p flexrpc-bench --bin report

./target/release/report failover stream cluster trace fuse \
  --check --json "$out/BENCH_exact.json"
./target/release/report fig2 fig6 fig7 fig10 fig11 fig12 port ablate \
  --check --json "$out/BENCH_paper.json"
