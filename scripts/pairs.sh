#!/usr/bin/env bash
# Alternating parent / change pairs of the benchmark's workloads — the
# procedure a claimed gain is judged by (ten or more pairs, the side that
# runs first alternating, a fresh seed per pair; a win on nine tenths of
# the pairs and medians further apart than the parent's own quartiles),
# and the table a change that claims no gain owes.
#
#   scripts/pairs.sh WORKLOAD N [SECONDS] PARENT_DIR CHANGE_DIR
#
# WORKLOAD is one workload, a comma list of them, or `all` (every workload
# CHANGE_DIR/BENCHMARK.json declares). PARENT_DIR and CHANGE_DIR are two
# checkouts of this repository (a `git clone` of the parent commit and the
# working tree, say). Each side's `benchmark/` is built from its own
# checkout into its own target directory, outside both checkouts:
# $PAIRS_TARGET_DIR/parent and $PAIRS_TARGET_DIR/change (default
# ${TMPDIR:-/tmp}/flexrpc-pairs). The two names are the same length on
# purpose — paths are embedded in the binary and shift its code layout.
# Pair i runs seed $PAIRS_SEED + i (default 1000) on both sides. SECONDS
# defaults to the benchmark's own run length.
#
# Only `benchmark/run.sh --workload … --trace 0` is called; nothing under
# either `benchmark/` is written. Per pair it prints both sides' end-to-end
# metrics; per workload each metric's median and quartiles per side and
# the pairs each side won; and it ends with one verdict line per
# (workload, end-to-end metric), read against the bound BENCHMARK.json
# declares for that metric, plus the failed-operation totals:
#
#   better        the change won nine tenths of the pairs and the medians
#                 differ by more than the parent's interquartile range, or
#                 every change run read better than every parent run
#   within bound  the change's median is no worse than the parent's by
#                 more than the bound
#   worse         it is worse by more than the bound
#   unresolved    the parent's own interquartile range is wider than the
#                 bound, so this many pairs cannot tell
set -euo pipefail

usage() {
  sed -n '2,35p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
}

[[ $# -eq 4 || $# -eq 5 ]] || usage
selected=$1
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

# What BENCHMARK.json declares: the workloads, and per end-to-end metric
# "name better bound". (Its objects are one key a line.)
declared=$change/BENCHMARK.json
[[ -f $declared ]] || { echo "pairs.sh: no BENCHMARK.json in $change" >&2; exit 2; }
section() {
  awk -v want="\"$1\":" '
    $1 ~ /^"(workloads|end_to_end|per_layer)":$/ { on = $1 == want }
    on { gsub(/[",]/, ""); if ($1 ~ /^(name|better|bound):$/) print $1, $2 }' "$declared"
}
bounds=$(section end_to_end | awk '
  $1 == "name:" { name = $2 } $1 == "better:" { better = $2 } $1 == "bound:" { printf "%s %s %s;", name, better, $2 }')
mapfile -t metrics < <(tr ';' '\n' <<<"$bounds" | awk 'NF { print $1 }')
[[ ${#metrics[@]} -gt 0 ]] || { echo "pairs.sh: no end_to_end metrics in $declared" >&2; exit 2; }
if [[ $selected == all ]]; then
  mapfile -t workloads < <(section workloads | awk '$1 == "name:" { print $2 }')
else
  IFS=, read -r -a workloads <<<"$selected"
fi
[[ ${#workloads[@]} -gt 0 ]] || usage

targets=${PAIRS_TARGET_DIR:-${TMPDIR:-/tmp}/flexrpc-pairs}
seed0=${PAIRS_SEED:-1000}

log=$(mktemp)
trap 'rm -f "$log"' EXIT

# run SIDE DIR SEED: one run of $workload; appends "WORKLOAD SIDE PAIR metric
# value" rows to $log.
run() {
  local side=$1 dir=$2 seed=$3 line m value
  line=$(CARGO_TARGET_DIR="$targets/$side" bash "$dir/benchmark/run.sh" \
    --workload "$workload" --seed "$seed" "${seconds[@]}" --trace 0 | tail -n 1)
  for m in "${metrics[@]}" failed; do
    value=$(sed -n "s/.*\"$m\": \({\"unit\": \"[^\"]*\", \"value\": \)\{0,1\}\([-0-9.e+]*\).*/\2/p" <<<"$line")
    [[ -n $value ]] || { echo "pairs.sh: no \`$m\` in the result of $side, $workload, seed $seed: $line" >&2; exit 1; }
    echo "$workload $side $pair $m $value" >>"$log"
  done
}

# The first run of each side also builds it; do both before any timing.
for side in parent change; do
  dir=${!side}
  echo "building $side: $dir/benchmark -> $targets/$side" >&2
  CARGO_TARGET_DIR="$targets/$side" cargo build --release --offline --quiet \
    --manifest-path "$dir/benchmark/Cargo.toml" >&2
done

# Reads $log (and, for the verdicts, $bounds): per workload and metric each
# side's quartiles and wins; with verdicts=1 the closing table instead.
summarize() {
  awk -v verdicts="$1" -v only="$2" -v bounds="$bounds" '
    function sorted(w, m, s,   i, j, t) {
      n = 0
      for (i = 1; (w, s, i, m) in val; i++) v[++n] = val[w, s, i, m]
      for (i = 2; i <= n; i++) for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
    }
    # Quartiles by linear interpolation between order statistics.
    function q(p,   h, lo) { h = (n - 1) * p + 1; lo = int(h); return v[lo] + (h - lo) * (v[lo < n ? lo + 1 : lo] - v[lo]) }
    function stats(w, m, s) { sorted(w, m, s); q1[s] = q(0.25); med[s] = q(0.5); q3[s] = q(0.75); lo_[s] = v[1]; hi_[s] = v[n] }
    BEGIN {
      nm = split(bounds, row, ";") - 1
      for (i = 1; i <= nm; i++) { split(row[i], f, " "); metric[i] = f[1]; higher[f[1]] = f[2] == "higher"; bound[f[1]] = f[3] }
    }
    { val[$1, $2, $3, $4] = $5 + 0; if (!($1 in seen)) { seen[$1] = 1; order[++nw] = $1 } }
    END {
      for (k = 1; k <= nw; k++) {
        w = order[k]
        if (only != "" && w != only) continue
        for (i = 1; i <= nm; i++) {
          m = metric[i]; hi = higher[m]
          stats(w, m, "parent"); stats(w, m, "change")
          wins["parent"] = wins["change"] = 0
          for (p = 1; p <= n; p++) {
            a = val[w, "parent", p, m]; b = val[w, "change", p, m]
            if (hi ? a > b : a < b) wins["parent"]++
            if (hi ? b > a : b < a) wins["change"]++
          }
          if (!verdicts) {
            for (s = 1; s <= 2; s++) {
              side = s == 1 ? "parent" : "change"
              printf "%-20s %-7s %14.6g %14.6g %14.6g %3d/%d\n", m, side, q1[side], med[side], q3[side], wins[side], n
            }
            continue
          }
          P = med["parent"]; C = med["change"]; iqr = q3["parent"] - q1["parent"]
          scale = P < 0 ? -P : P
          worse_by = hi ? P - C : C - P            # > 0 when the change is worse
          clear = hi ? lo_["change"] > hi_["parent"] : hi_["change"] < lo_["parent"]
          if (clear) verdict = "better"
          else if (iqr > bound[m] * scale) verdict = "unresolved"
          else if (worse_by > bound[m] * scale) verdict = "worse"
          else if (wins["change"] * 10 >= n * 9 && -worse_by > iqr) verdict = "better"
          else verdict = "within bound"
          pct = scale > 0 ? sprintf("%+.2f %%", (C - P) / scale * 100) : "n/a"
          spread = scale > 0 ? sprintf("%.2f %%", iqr / scale * 100) : "n/a"
          printf "%-18s %-20s %-13s parent %-12.6g change %-12.6g %10s  (bound %g %%, parent IQR %s, change won %d/%d)\n", \
            w, m, verdict, P, C, pct, bound[m] * 100, spread, wins["change"], n
        }
      }
    }' "$log"
}

for workload in "${workloads[@]}"; do
  echo
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
        printf ' %18s' "$(awk -v w="$workload" -v s="$side" -v p="$pair" -v m="$m" \
          '$1 == w && $2 == s && $3 == p && $4 == m { print $5 }' "$log")"
      done
      printf '\n'
    done
  done
  echo
  echo "workload $workload, $pairs pairs, seeds $((seed0 + 1))..$((seed0 + pairs))"
  printf '%-20s %-7s %14s %14s %14s %6s\n' metric side q1 median q3 wins
  summarize 0 "$workload"
done

echo
echo "verdicts: the change's median against the parent's, by BENCHMARK.json's bounds"
summarize 1 ""
for side in parent change; do
  awk -v s="$side" '$2 == s && $4 == "failed" { sum += $5 } END { printf "failed %-7s %d\n", s, sum }' "$log"
done
