#!/usr/bin/env bash
# Non-test library lines: every tracked `.rs` file under `crates/*/src` and
# `src/` (the stand-ins under `crates/shims` are not counted), each counted
# up to its first top-level `#[cfg(test)]` line, blank and comment lines
# included. Prints one line per crate (the root package is `flexrpc`), then
# the total.
#
#   scripts/loc.sh
set -euo pipefail
export LC_ALL=C
cd "$(dirname "$0")/.."

# Glob pathspecs: `*` stops at a `/`, so `crates/shims/<name>/src` is not
# matched.
git ls-files -z -- ':(glob)crates/*/src/**/*.rs' ':(glob)src/**/*.rs' |
  while IFS= read -r -d '' f; do
    crate=flexrpc
    [[ $f == crates/* ]] && crate=${f#crates/} && crate=${crate%%/*}
    n=$(awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")
    printf '%s %s\n' "$crate" "$n"
  done |
  awk '{ lines[$1] += $2; total += $2 }
       END {
         for (c in lines) printf "%-10s %7d\n", c, lines[c] | "sort"
         close("sort")
         printf "%-10s %7d\n", "total", total
       }'
