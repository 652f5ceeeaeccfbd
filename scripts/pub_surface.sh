#!/usr/bin/env bash
# Name-level probe of each crate's public surface. For every crate under
# crates/ it prints the number of distinct `pub fn` names in its src/, how
# many of them no .rs file of the program outside that src/ names (the
# program is crates/, tests/, examples/ and src/; the crate's bins and
# tests count as outside), how many only benchmark/src names, the same two
# counts again with tests not counted as callers (no file under a `tests/`
# directory), and the Rust line count of the whole crate. `-v` also lists
# the names of all four groups, and after the total the `pub fn` names
# that more than one crate defines, each with those crates. The stubs
# under vendor/ are no callers. A name matches as a whole word anywhere,
# comments and `#[cfg(test)]` blocks in another crate's src/ included, so
# a name shared with another item counts as a caller: read the output as
# an upper bound on what is dead. A shared `pub fn` name is the plainest
# case: each crate's definition counts as the other's caller, so such a
# name is never reported dead. CI pins the test-free "no caller" total
# (the last line's fifth column), so a PR that moves it says why.
#
#   scripts/pub_surface.sh [-v]
set -euo pipefail
cd "$(dirname "$0")/.."
verbose=${1:-}
rs() { find "$@" -name '*.rs' -not -path '*/target/*' 2>/dev/null || true; }
bench=$(rs benchmark/src)
printf '%-14s %7s %9s %14s %17s %20s %7s\n' crate 'pub fn' 'no caller' 'only benchmark' \
  'no caller (-test)' 'only bench (-test)' lines
tot=(0 0 0 0 0 0)
defined=() # "name crate", one per pub fn name of each crate
# Splits `names` into `dead` (no caller in the files `$1`) and `only_bench`
# (named by benchmark/src alone).
classify() {
  dead=() only_bench=()
  for n in $names; do
    grep -qw -- "$n" $1 && continue
    if grep -qw -- "$n" $bench; then only_bench+=("$n"); else dead+=("$n"); fi
  done
}
for dir in crates/*/; do
  crate=$(basename "$dir")
  names=$(grep -rhoE 'pub fn [A-Za-z_][A-Za-z0-9_]*' --include='*.rs' "$dir/src" | awk '{print $3}' | sort -u)
  for n in $names; do defined+=("$n $crate"); done
  outside=$({ rs crates tests examples src | grep -v "^crates/$crate/src/"; rs "${dir}src/bin"; })
  classify "$outside"
  dead_all=("${dead[@]}") bench_all=("${only_bench[@]}")
  classify "$(grep -vE '(^|/)tests/' <<<"$outside")"
  row=($(wc -w <<<"$names") ${#dead_all[@]} ${#bench_all[@]} ${#dead[@]} ${#only_bench[@]} \
    $(rs "$dir" | xargs cat | wc -l))
  printf '%-14s %7d %9d %14d %17d %20d %7d\n' "$crate" "${row[@]}"
  if [ "$verbose" = -v ]; then
    if [ ${#dead_all[@]} -gt 0 ]; then echo "  no caller: ${dead_all[*]}"; fi
    if [ ${#bench_all[@]} -gt 0 ]; then echo "  only benchmark: ${bench_all[*]}"; fi
    if [ ${#dead[@]} -gt 0 ]; then echo "  no caller (-test): ${dead[*]}"; fi
    if [ ${#only_bench[@]} -gt 0 ]; then echo "  only benchmark (-test): ${only_bench[*]}"; fi
  fi
  for i in 0 1 2 3 4 5; do tot[i]=$((tot[i] + row[i])); done
done
printf '%-14s %7d %9d %14d %17d %20d %7d\n' total "${tot[@]}"
if [ "$verbose" = -v ]; then
  echo "shared (names more than one crate defines; their counts are upper bounds):"
  printf '%s\n' "${defined[@]}" | awk '
    { crates[$1] = crates[$1] " " $2; n[$1]++ }
    END { for (name in n) if (n[name] > 1) print "  " name ":" crates[name] }' | sort
fi
