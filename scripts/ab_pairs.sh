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
# each pair's host-measured end-to-end metrics (calibrated tasks_per_s,
# setup_s, peak_rss_mib) and fingerprints, then per metric each side's
# median and quartiles and in how many pairs the change was better (ties
# count for neither), and the claim rule's verdict: a gain needs the
# change better in at least 9 of 10 pairs and a median better than the
# parent's by more than the parent's interquartile range. The simulated
# metrics are not listed: the
# fingerprint pins them. Each run's full output is kept as
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

# The host-measured end-to-end metrics, and which way is better.
metrics=(tasks_per_s setup_s peak_rss_mib)
declare -A better=([tasks_per_s]=higher [setup_s]=lower [peak_rss_mib]=lower)

# One run of side $1 in pair $2: prints one value per entry of `metrics`,
# then the fingerprint.
run() {
  local bin=$change_bin out m
  if [[ $1 == parent ]]; then bin=$parent_bin; fi
  out=$("$bin" --workload "$workload" --seed 2024 --seconds "$seconds")
  printf '%s\n' "$out" >"$work/runs/$workload-$2-$1.txt"
  for m in "${metrics[@]}"; do
    printf '%s ' "$(grep -o "\"$m\": {\"value\": [0-9.e+-]*" <<<"$out" | sed 's/.* //')"
  done
  grep -o 'fingerprint 0x[0-9a-f]*' <<<"$out" | sed 's/.* //'
}

# Median, first and third quartile of the numbers on stdin (linear
# interpolation), full precision.
quartiles() {
  sort -g | awk '{ v[n++] = $1 }
    function q(p,  h, i) { h = (n - 1) * p; i = int(h); return v[i] + (h - i) * (v[i + 1] - v[i]) }
    END { printf "%.17g %.17g %.17g\n", q(0.5), q(0.25), q(0.75) }'
}

echo "$workload, seed 2024, ${seconds} s a run, $pairs pairs: parent ${rev:0:12} vs working tree"
printf '%-5s %-7s' pair first
for m in "${metrics[@]}"; do printf ' %25s' "$m parent/change"; done
printf '  %-18s %-18s\n' parent-fp change-fp
declare -A parent_vals change_vals wins
status=0 pin=
for ((i = 1; i <= pairs; i++)); do
  if ((i % 2)); then
    first=parent p=$(run parent "$i") c=$(run change "$i")
  else
    first=change c=$(run change "$i") p=$(run parent "$i")
  fi
  read -r -a pv <<<"$p"
  read -r -a cv <<<"$c"
  pfp=${pv[-1]} cfp=${cv[-1]}
  pin=${pin:-$pfp}
  printf '%-5s %-7s' "$i" "$first"
  for k in "${!metrics[@]}"; do
    m=${metrics[k]}
    parent_vals[$m]+="${pv[k]} " change_vals[$m]+="${cv[k]} "
    if awk -v c="${cv[k]}" -v p="${pv[k]}" -v b="${better[$m]}" \
      'BEGIN { exit !(b == "higher" ? c > p : c < p) }'; then
      wins[$m]=$((${wins[$m]:-0} + 1))
    fi
    printf ' %12.5g/%-12.5g' "${pv[k]}" "${cv[k]}"
  done
  if [[ $pfp != "$pin" || $cfp != "$pin" ]]; then status=1; fi
  printf '  %-18s %-18s\n' "$pfp" "$cfp"
done
# One side's line: median, quartiles and their distance.
show() {
  awk -v s="$1" -v m="$2" -v a="$3" -v b="$4" \
    'BEGIN { printf "  %s: median %-10.5g q1 %-10.5g q3 %-10.5g iqr %.5g\n", s, m, a, b, b - a }'
}
for m in "${metrics[@]}"; do
  echo "$m (${better[$m]} is better):"
  read -r pmed pq1 pq3 <<<"$(tr ' ' '\n' <<<"${parent_vals[$m]}" | grep . | quartiles)"
  read -r cmed cq1 cq3 <<<"$(tr ' ' '\n' <<<"${change_vals[$m]}" | grep . | quartiles)"
  show parent "$pmed" "$pq1" "$pq3"
  show change "$cmed" "$cq1" "$cq3"
  echo "  change better in ${wins[$m]:-0} of $pairs pairs"
  awk -v w="${wins[$m]:-0}" -v n="$pairs" -v b="${better[$m]}" -v p="$pmed" -v c="$cmed" \
    -v q1="$pq1" -v q3="$pq3" 'BEGIN {
      gap = b == "higher" ? c - p : p - c; iqr = q3 - q1
      pairs = 10 * w >= 9 * n; wide = gap > iqr
      printf "  claim rule: better in %d of %d pairs (%s 9 in 10), median gap %.5g %s parent IQR %.5g: %s\n",
        w, n, pairs ? "at least" : "fewer than", gap, wide ? "exceeds" : "does not exceed", iqr,
        pairs && wide ? "GAIN" : "no gain" }'
done
if ((status)); then
  echo "FINGERPRINT MISMATCH: the change moved the trajectory" >&2
fi
exit "$status"
