#!/usr/bin/env bash
# Alternating parent / change pairs of one benchmark workload — the
# procedure a claimed gain is judged by (ten or more pairs, the side that
# runs first alternating, a fresh seed per pair; a win on nine tenths of
# the pairs and medians further apart than the parent's own quartiles).
#
#   scripts/pairs.sh WORKLOAD N [SECONDS] PARENT_DIR CHANGE_DIR
#
# PARENT_DIR and CHANGE_DIR are two checkouts of this repository (a
# `git clone` of the parent commit and the working tree, say). Each side's
# `benchmark/` is built from its own checkout into its own target
# directory, outside both checkouts: $PAIRS_TARGET_DIR/parent and
# $PAIRS_TARGET_DIR/change (default ${TMPDIR:-/tmp}/flexrpc-pairs). The
# two names are the same length on purpose — paths are embedded in the
# binary and shift its code layout. Pair i runs seed $PAIRS_SEED + i
# (default 1000) on both sides. SECONDS defaults to the benchmark's own
# run length.
#
# Only `benchmark/run.sh --workload … --trace 0` is called; nothing under
# either `benchmark/` is written. Per pair it prints both sides' six
# end-to-end metrics, and at the end each metric's median and quartiles
# per side, the pairs each side won, and the failed operations.
set -euo pipefail

usage() {
  sed -n '2,22p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
}

[[ $# -eq 4 || $# -eq 5 ]] || usage
workload=$1
pairs=$2
seconds=()
if [[ $# -eq 5 ]]; then
  seconds=(--seconds "$3")
  shift
fi
parent=$(cd "$3" && pwd)
change=$(cd "$4" && pwd)
[[ $pairs =~ ^[1-9][0-9]*$ ]] || usage
for dir in "$parent" "$change"; do
  [[ -f $dir/benchmark/run.sh ]] || { echo "pairs.sh: no benchmark/run.sh in $dir" >&2; exit 2; }
done

targets=${PAIRS_TARGET_DIR:-${TMPDIR:-/tmp}/flexrpc-pairs}
seed0=${PAIRS_SEED:-1000}
metrics=(ops_per_s lat_p50_ns setup_s allocs_per_op alloc_bytes_per_op peak_rss_mb)
# metric -> 1 when higher is better
declare -A higher=([ops_per_s]=1)

log=$(mktemp)
trap 'rm -f "$log"' EXIT

# run SIDE DIR SEED: one run; appends "SIDE PAIR metric value" rows to $log.
run() {
  local side=$1 dir=$2 seed=$3 line m value
  line=$(CARGO_TARGET_DIR="$targets/$side" bash "$dir/benchmark/run.sh" \
    --workload "$workload" --seed "$seed" "${seconds[@]}" --trace 0 | tail -n 1)
  for m in "${metrics[@]}" failed; do
    value=$(sed -n "s/.*\"$m\": \({\"unit\": \"[^\"]*\", \"value\": \)\{0,1\}\([-0-9.e+]*\).*/\2/p" <<<"$line")
    [[ -n $value ]] || { echo "pairs.sh: no \`$m\` in the result of $side, seed $seed: $line" >&2; exit 1; }
    echo "$side $pair $m $value" >>"$log"
  done
}

# The first run of each side also builds it; do both before any timing.
for side in parent change; do
  dir=${!side}
  echo "building $side: $dir/benchmark -> $targets/$side" >&2
  CARGO_TARGET_DIR="$targets/$side" cargo build --release --offline --quiet \
    --manifest-path "$dir/benchmark/Cargo.toml" >&2
done

printf '%-5s %-7s' pair side
printf ' %18s' "${metrics[@]}" failed
printf '\n'
for ((pair = 1; pair <= pairs; pair++)); do
  seed=$((seed0 + pair))
  if ((pair % 2)); then order=(parent change); else order=(change parent); fi
  for side in "${order[@]}"; do
    run "$side" "${!side}" "$seed"
  done
  for side in parent change; do
    printf '%-5s %-7s' "$pair" "$side"
    for m in "${metrics[@]}" failed; do
      printf ' %18s' "$(awk -v s="$side" -v p="$pair" -v m="$m" \
        '$1 == s && $2 == p && $3 == m { print $4 }' "$log")"
    done
    printf '\n'
  done
done

echo
echo "workload $workload, $pairs pairs, seeds $((seed0 + 1))..$((seed0 + pairs))"
printf '%-20s %-7s %14s %14s %14s %6s\n' metric side q1 median q3 wins
for m in "${metrics[@]}"; do
  for side in parent change; do
    awk -v s="$side" -v m="$m" '$1 == s && $3 == m { print $4 }' "$log" | sort -g |
      awk -v side="$side" -v m="$m" -v hi="${higher[$m]:-0}" -v log_="$log" '
        # Quartiles by linear interpolation between order statistics.
        function q(p,   h, lo) { h = (n - 1) * p + 1; lo = int(h); return v[lo] + (h - lo) * (v[lo < n ? lo + 1 : lo] - v[lo]) }
        { v[++n] = $1 }
        END {
          other = side == "parent" ? "change" : "parent"
          while ((getline line < log_) > 0) {
            split(line, f, " ")
            if (f[3] == m) val[f[1], f[2]] = f[4]
          }
          for (p = 1; p <= n; p++) {
            a = val[side, p] + 0; b = val[other, p] + 0
            if (hi ? a > b : a < b) wins++
          }
          printf "%-20s %-7s %14.6g %14.6g %14.6g %3d/%d\n", m, side, q(0.25), q(0.5), q(0.75), wins, n
        }'
  done
done
for side in parent change; do
  awk -v s="$side" '$1 == s && $3 == "failed" { sum += $4 } END { printf "failed %-7s %d\n", s, sum }' "$log"
done
