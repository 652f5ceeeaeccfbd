#!/usr/bin/env bash
# Name-level probe of each crate's public surface. For every crate under
# crates/ it prints the number of distinct `pub fn` names in its src/, how
# many of them no .rs file of the program outside that src/ names (the
# program is crates/, tests/, examples/ and src/; the crate's bins and
# tests count as outside), how many only benchmark/src names, and the Rust
# line count of the whole crate. `-v` also lists the names in both groups.
# The stubs under vendor/ are no callers. A name matches as a whole word
# anywhere, comments included, so a name shared with another item counts
# as a caller: read the output as an upper bound on what is dead, never
# as a gate.
#
#   scripts/pub_surface.sh [-v]
set -euo pipefail
cd "$(dirname "$0")/.."
verbose=${1:-}
rs() { find "$@" -name '*.rs' -not -path '*/target/*' 2>/dev/null || true; }
bench=$(rs benchmark/src)
printf '%-14s %7s %9s %14s %7s\n' crate 'pub fn' 'no caller' 'only benchmark' lines
tot=(0 0 0 0)
for dir in crates/*/; do
  crate=$(basename "$dir")
  names=$(grep -rhoE 'pub fn [A-Za-z_][A-Za-z0-9_]*' --include='*.rs' "$dir/src" | awk '{print $3}' | sort -u)
  outside=$({ rs crates tests examples src | grep -v "^crates/$crate/src/"; rs "${dir}src/bin"; })
  dead=() only_bench=()
  for n in $names; do
    grep -qw -- "$n" $outside && continue
    if grep -qw -- "$n" $bench; then only_bench+=("$n"); else dead+=("$n"); fi
  done
  row=($(wc -w <<<"$names") ${#dead[@]} ${#only_bench[@]} $(rs "$dir" | xargs cat | wc -l))
  printf '%-14s %7d %9d %14d %7d\n' "$crate" "${row[@]}"
  if [ "$verbose" = -v ]; then
    if [ ${#dead[@]} -gt 0 ]; then echo "  no caller: ${dead[*]}"; fi
    if [ ${#only_bench[@]} -gt 0 ]; then echo "  only benchmark: ${only_bench[*]}"; fi
  fi
  for i in 0 1 2 3; do tot[i]=$((tot[i] + row[i])); done
done
printf '%-14s %7d %9d %14d %7d\n' total "${tot[@]}"
