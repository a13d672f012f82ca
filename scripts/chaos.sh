#!/usr/bin/env bash
# Chaos sweep: runs the deterministic cluster sim over N consecutive
# seeded fault schedules (beyond the fixed 16-seed CI matrix) and checks
# the exactly-once invariants on every one. On the first failing seed it
# prints the one-line replay command that reproduces the failure
# byte-for-byte, then exits nonzero.
#
# Usage: scripts/chaos.sh [N] [START]
#   N      seeds to sweep (default 64)
#   START  first seed (default 1)
#
# Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

N="${1:-64}"
START="${2:-1}"

cargo build -q --release -p flexrpc-bench --bin report

fail=0
for ((seed = START; seed < START + N; seed++)); do
  if ! ./target/release/report cluster --check --seed "$seed" >/dev/null 2>&1; then
    echo "chaos: seed $seed FAILED its invariant or replay check" >&2
    echo "reproduce with:" >&2
    echo "  cargo run --release -p flexrpc-bench --bin report -- cluster --check --seed $seed" >&2
    fail=1
    break
  fi
  echo "chaos: seed $seed ok" >&2
done

if [[ "$fail" -eq 0 ]]; then
  echo "chaos: all $N seeds from $START held exactly-once" >&2
fi
exit "$fail"
