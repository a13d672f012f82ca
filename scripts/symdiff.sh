#!/usr/bin/env bash
# Which functions of the benchmark binary a change resized: builds
# `benchmark/` at PARENT and at the working tree, each from a clean copy of
# its own, offline, and compares the two binaries' `nm -S` sizes by name.
#
#   scripts/symdiff.sh PARENT
#
# PARENT is any commit git can name (`HEAD`, `main~1`, a hash). The working
# tree's copy holds what `git add -A` would commit: every tracked file as it
# stands and every untracked file that is not ignored. The copies go to
# $SYMDIFF_DIR/parent and $SYMDIFF_DIR/change (default
# ${TMPDIR:-/tmp}/flexrpc-symdiff), two paths of the same length, since the
# source path is embedded in the binary and shifts its layout; each builds
# into its own `benchmark/target`. Nothing in the repository is written.
#
# Names are demangled. Any edit to a crate moves every mangled name's
# `17h<16 hex>E` hash, and LLVM numbers some local symbols `.llvm.<N>`: both
# are stripped before names are compared, and the sizes of symbols that
# then share a name (the instances of one generic function) are summed,
# with their count. Unnamed constants (`anon.*`) are left out. Printed:
# every named symbol whose size moved (parent bytes, change bytes, the
# difference; largest move first), then every name only one side has.
set -euo pipefail
export LC_ALL=C

usage() {
  sed -n '2,22p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
}

[[ $# -eq 1 ]] || usage
repo=$(cd "$(dirname "$0")/.." && pwd)
rev=$(git -C "$repo" rev-parse --verify --quiet "$1^{commit}") || usage
work=${SYMDIFF_DIR:-${TMPDIR:-/tmp}/flexrpc-symdiff}
rm -rf "$work/parent" "$work/change"
mkdir -p "$work/parent" "$work/change"

git -C "$repo" archive "$rev" | tar -x -C "$work/parent"
(
  cd "$repo"
  git ls-files -z --cached --others --exclude-standard |
    while IFS= read -r -d '' f; do [[ -e $f ]] && printf '%s\0' "$f"; done |
    tar -c --null -T -
) | tar -x -C "$work/change"

for side in parent change; do
  echo "building $side: $work/$side/benchmark" >&2
  env -u CARGO_TARGET_DIR cargo build --release --offline --quiet \
    --manifest-path "$work/$side/benchmark/Cargo.toml" >&2
done

# SIDE: "name<TAB>bytes<TAB>count" per demangled, stripped name, sorted.
symbols() {
  nm -S --defined-only "$work/$1/benchmark/target/release/flexrpc-benchmark" |
    awk 'NF == 4 && $4 !~ /^anon\./ { print $2 "\t" $4 }' |
    c++filt |
    sed -E 's/\.llvm\.[0-9]+//g; s/17h[0-9a-f]{16}E/E/; s/::h[0-9a-f]{16}$//' |
    awk -F '\t' '
      function hex(s,   i, v) {
        v = 0
        for (i = 1; i <= length(s); i++) v = v * 16 + index("0123456789abcdef", substr(s, i, 1)) - 1
        return v
      }
      { bytes[$2] += hex(tolower($1)); count[$2]++ }
      END { for (s in bytes) print s "\t" bytes[s] "\t" count[s] }' |
    sort -t "$tab" -k1,1
}

tab=$'\t'
symbols parent >"$work/parent.syms"
symbols change >"$work/change.syms"

# Per name: parent bytes, parent count, change bytes, change count ("-"
# where that side lacks it).
join -t "$tab" -a 1 -a 2 -e - -o 0,1.2,1.3,2.2,2.3 "$work/parent.syms" "$work/change.syms" \
  >"$work/joined"
# NAME [COUNT]: the name, marked when several symbols share it.
label='function label(name, n) { return n > 1 ? name " ×" n : name }'

echo "resized (bytes; ×N: N symbols share the name once hashes are stripped)"
printf '%10s %10s %8s  %s\n' parent change delta symbol
awk -F '\t' "$label"'
  $2 != "-" && $4 != "-" && $2 != $4 {
    d = $4 - $2
    printf "%d\t%10d %10d %+8d  %s\n", (d < 0 ? -d : d), $2, $4, d, label($1, $5)
  }' "$work/joined" | sort -t "$tab" -k1,1nr -k2 | cut -f 2-
for side in parent change; do
  echo
  echo "only in $side"
  awk -F '\t' -v side="$side" "$label"'
    side == "parent" && $4 == "-" { printf "%d\t%10d  %s\n", $2, $2, label($1, $3) }
    side == "change" && $2 == "-" { printf "%d\t%10d  %s\n", $4, $4, label($1, $5) }' \
    "$work/joined" | sort -t "$tab" -k1,1nr -k2 | cut -f 2-
done
