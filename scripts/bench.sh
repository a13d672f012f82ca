#!/usr/bin/env bash
# Regenerates the two committed artifacts with the `report` binary, and with
# them the rendered blocks of EXPERIMENTS.md:
#
#   BENCH_exact.json — counters, sim-clock nanoseconds and byte-identical
#                      replays (failover, stream, qos, cluster, trace,
#                      fuse): the same bytes on every run, which
#                      scripts/ci.sh checks with `cmp`
#   BENCH_paper.json — the paper's figures and the engine experiments as
#                      exact copy schedules plus shapes from paired rounds
#
# `report --json` writes nothing unless every gate holds, so neither file
# can contradict the bounds recorded in it, and in the same step it rewrites
# the `<!-- report:NAME -->` blocks of the EXPERIMENTS.md beside the file it
# wrote, so the document cannot contradict the artifact
# (crates/bench/tests/artifacts.rs checks both). Wall-clock throughput and
# latency are not here: `benchmark/run.sh` measures those.
#
# Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build -q --release -p flexrpc-bench --bin report

./target/release/report failover stream qos cluster trace fuse \
  --check --json BENCH_exact.json
./target/release/report fig2 fig6 fig7 fig10 fig11 fig12 port ablate shed scale \
  --check --json BENCH_paper.json
