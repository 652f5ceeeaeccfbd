#!/usr/bin/env bash
# Alternating A/B timing of the repo benchmark: a parent revision against
# the working tree, on one workload.
#
#   scripts/ab_pairs.sh <parent-rev> <workload> [pairs] [seconds]
#
# Builds the benchmark binary `--release --offline --locked` twice: for
# <parent-rev> from a `git archive` copy under .bench_build/ab/, and for
# the working tree in place. Then runs `pairs` pairs (default 10) of
# `--workload <workload> --seed 2024 --seconds <seconds>` (default 30),
# the parent first in odd pairs and the change first in even ones. Prints
# each pair's calibrated tasks_per_s and fingerprints, each side's median
# and quartiles, and how many pairs the change won (ties count for
# neither). Each run's full output is kept as
# .bench_build/ab/runs/<workload>-<pair>-<side>.txt for the other metrics.
# Exits 1 if any run's fingerprint differs from the parent's first one: a
# speed-only change must not move the trajectory.
set -euo pipefail
cd "$(dirname "$0")/.."
if [[ $# -lt 2 || $# -gt 4 ]]; then
  echo "usage: $0 <parent-rev> <workload> [pairs] [seconds]" >&2
  exit 2
fi
rev=$(git rev-parse --verify "$1^{commit}")
workload=$2 pairs=${3:-10} seconds=${4:-30}
work=.bench_build/ab
mkdir -p "$work/runs"

build() { cargo build --release --offline --locked --quiet --manifest-path "$1/benchmark/Cargo.toml"; }
parent_bin=$work/$rev/benchmark/target/release/flexsched-benchmark
if [[ ! -x $parent_bin ]]; then
  rm -rf "${work:?}/$rev"
  mkdir -p "$work/$rev"
  git archive "$rev" | tar -x -C "$work/$rev"
  build "$work/$rev"
fi
build .
change_bin=$work/change-bin
cp benchmark/target/release/flexsched-benchmark "$change_bin"

# One run of side $1 in pair $2: prints "<tasks_per_s> <fingerprint>".
run() {
  local bin=$change_bin out
  if [[ $1 == parent ]]; then bin=$parent_bin; fi
  out=$("$bin" --workload "$workload" --seed 2024 --seconds "$seconds")
  printf '%s\n' "$out" >"$work/runs/$workload-$2-$1.txt"
  printf '%s %s\n' \
    "$(grep -o '"tasks_per_s": {"value": [0-9.e+-]*' <<<"$out" | sed 's/.* //')" \
    "$(grep -o 'fingerprint 0x[0-9a-f]*' <<<"$out" | sed 's/.* //')"
}

# Median and quartiles of the numbers on stdin (linear interpolation).
quartiles() {
  sort -g | awk '{ v[n++] = $1 }
    function q(p,  h, i) { h = (n - 1) * p; i = int(h); return v[i] + (h - i) * (v[i + 1] - v[i]) }
    END { printf "median %.1f  q1 %.1f  q3 %.1f  iqr %.1f\n", q(0.5), q(0.25), q(0.75), q(0.75) - q(0.25) }'
}

echo "$workload, seed 2024, ${seconds} s a run, $pairs pairs: parent ${rev:0:12} vs working tree"
printf '%-5s %-7s %12s %12s  %-18s %-18s\n' pair first parent change parent-fp change-fp
parent_rates=() change_rates=() wins=0 status=0 pin=
for ((i = 1; i <= pairs; i++)); do
  if ((i % 2)); then
    first=parent p=$(run parent "$i") c=$(run change "$i")
  else
    first=change c=$(run change "$i") p=$(run parent "$i")
  fi
  read -r prate pfp <<<"$p"
  read -r crate cfp <<<"$c"
  pin=${pin:-$pfp}
  parent_rates+=("$prate") change_rates+=("$crate")
  if awk -v c="$crate" -v p="$prate" 'BEGIN { exit !(c > p) }'; then wins=$((wins + 1)); fi
  if [[ $pfp != "$pin" || $cfp != "$pin" ]]; then status=1; fi
  printf '%-5s %-7s %12.1f %12.1f  %-18s %-18s\n' "$i" "$first" "$prate" "$crate" "$pfp" "$cfp"
done
echo "parent: $(printf '%s\n' "${parent_rates[@]}" | quartiles)"
echo "change: $(printf '%s\n' "${change_rates[@]}" | quartiles)"
echo "change wins $wins of $pairs pairs"
if ((status)); then
  echo "FINGERPRINT MISMATCH: the change moved the trajectory" >&2
fi
exit "$status"
