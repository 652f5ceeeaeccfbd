#!/usr/bin/env bash
# Alternating A/B timing of the repo benchmark: a parent revision against
# the working tree, on one or more workloads.
#
#   scripts/ab_pairs.sh <parent-rev> <workloads> [pairs] [seconds]
#
# <workloads> is one workload, a comma-separated list of them, or `all`
# (every workload BENCHMARK.json declares). Builds the benchmark binary
# `--release --offline --locked` twice, the same way: each side from a
# `git archive` copy under .bench_build/ab/, named by <parent-rev>'s
# commit id and by the working tree's tree id (its tracked and untracked
# files, ignored ones left out, written through a scratch index). A copy
# that was built before is reused. Then, workload after workload, runs
# `pairs` pairs (default 10) of
# `--workload <workload> --seed 2024 --seconds <seconds>` (default 30),
# the parent first in odd pairs and the change first in even ones. Prints
# each pair's host-measured end-to-end metrics (calibrated tasks_per_s,
# setup_s, peak_rss_mib) and fingerprints, then per metric each side's
# median and quartiles, in how many pairs the change was better and in how
# many worse (ties count for neither), and two verdicts:
#   claim rule       GAIN: the change better in at least 9 of 10 pairs and
#                    a median better than the parent's by more than the
#                    parent's interquartile range;
#   regression rule  REGRESSION: the same rule the other way round, worse
#                    in at least 9 of 10 pairs and a median worse by more
#                    than the parent's interquartile range.
# The last line names every workload and metric the regression rule
# flagged, or says that none was. The simulated metrics are not listed:
# the fingerprint pins them. Each run's full output is kept as
# .bench_build/ab/runs/<workload>-<pair>-<side>.txt for the other metrics.
# Exits 1 if any run's fingerprint differs from the parent's first one on
# its workload: a speed-only change must not move the trajectory.
set -euo pipefail
cd "$(dirname "$0")/.."
if [[ $# -lt 2 || $# -gt 4 ]]; then
  echo "usage: $0 <parent-rev> <workload[,workload...]|all> [pairs] [seconds]" >&2
  exit 2
fi
rev=$(git rev-parse --verify "$1^{commit}")
pairs=${3:-10} seconds=${4:-30}
if [[ $2 == all ]]; then
  # The names under "workloads", up to the next top-level key.
  mapfile -t workloads < <(awk '/"workloads"/ { w = 1 } /"end_to_end"/ { w = 0 }
    w && /"name"/ { sub(/.*"name": *"/, ""); sub(/".*/, ""); print }' BENCHMARK.json)
else
  IFS=, read -r -a workloads <<<"$2"
fi
work=.bench_build/ab
mkdir -p "$work/runs"

rm -f "$work/index"
tree=$(export GIT_INDEX_FILE=$work/index && git read-tree HEAD && git add -A && git write-tree)
rm -f "$work/index"
# The benchmark binary of commit or tree $1, built in its own archive copy.
built() {
  local dir=$work/$1
  if [[ ! -x $dir/benchmark/target/release/flexsched-benchmark ]]; then
    rm -rf "${dir:?}"
    mkdir -p "$dir"
    git archive "$1" | tar -x -C "$dir"
    cargo build --release --offline --locked --quiet --manifest-path "$dir/benchmark/Cargo.toml"
  fi
  echo "$dir/benchmark/target/release/flexsched-benchmark"
}
parent_bin=$(built "$rev")
change_bin=$(built "$tree")

# The host-measured end-to-end metrics, and which way is better.
metrics=(tasks_per_s setup_s peak_rss_mib)
declare -A better=([tasks_per_s]=higher [setup_s]=lower [peak_rss_mib]=lower)

# One run of side $1 in pair $2 on workload $3: prints one value per entry
# of `metrics`, then the fingerprint.
run() {
  local bin=$change_bin out m
  if [[ $1 == parent ]]; then bin=$parent_bin; fi
  out=$("$bin" --workload "$3" --seed 2024 --seconds "$seconds")
  printf '%s\n' "$out" >"$work/runs/$3-$2-$1.txt"
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

# One side's line: median, quartiles and their distance.
show() {
  awk -v s="$1" -v m="$2" -v a="$3" -v b="$4" \
    'BEGIN { printf "  %s: median %-10.5g q1 %-10.5g q3 %-10.5g iqr %.5g\n", s, m, a, b, b - a }'
}

# One rule's verdict line. $1 is the rule's name, $2 the word it prints
# when it holds, $3 how many pairs went its way, $4 the median gap in its
# direction, $5 the parent's IQR. Exits 0 when the rule holds.
verdict() {
  awk -v rule="$1" -v word="$2" -v w="$3" -v n="$pairs" -v gap="$4" -v iqr="$5" 'BEGIN {
    most = 10 * w >= 9 * n; wide = gap > iqr
    printf "  %s: %s in %d of %d pairs (%s 9 in 10), median gap %.5g %s parent IQR %.5g: %s\n",
      rule, word == "GAIN" ? "better" : "worse", w, n, most ? "at least" : "fewer than", gap,
      wide ? "exceeds" : "does not exceed", iqr, most && wide ? word : "no " tolower(word)
    exit !(most && wide) }'
}

status=0 flagged=()
for workload in "${workloads[@]}"; do
  echo "$workload, seed 2024, ${seconds} s a run, $pairs pairs: parent ${rev:0:12} vs working tree"
  printf '%-5s %-7s' pair first
  for m in "${metrics[@]}"; do printf ' %25s' "$m parent/change"; done
  printf '  %-18s %-18s\n' parent-fp change-fp
  declare -A parent_vals=() change_vals=() wins=() losses=()
  pin=
  for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then
      first=parent p=$(run parent "$i" "$workload") c=$(run change "$i" "$workload")
    else
      first=change c=$(run change "$i" "$workload") p=$(run parent "$i" "$workload")
    fi
    read -r -a pv <<<"$p"
    read -r -a cv <<<"$c"
    pfp=${pv[-1]} cfp=${cv[-1]}
    pin=${pin:-$pfp}
    printf '%-5s %-7s' "$i" "$first"
    for k in "${!metrics[@]}"; do
      m=${metrics[k]}
      parent_vals[$m]+="${pv[k]} " change_vals[$m]+="${cv[k]} "
      case $(awk -v c="${cv[k]}" -v p="${pv[k]}" -v b="${better[$m]}" \
        'BEGIN { d = b == "higher" ? c - p : p - c; print (d > 0 ? "win" : d < 0 ? "loss" : "tie") }') in
        win) wins[$m]=$((${wins[$m]:-0} + 1)) ;;
        loss) losses[$m]=$((${losses[$m]:-0} + 1)) ;;
      esac
      printf ' %12.5g/%-12.5g' "${pv[k]}" "${cv[k]}"
    done
    if [[ $pfp != "$pin" || $cfp != "$pin" ]]; then status=1; fi
    printf '  %-18s %-18s\n' "$pfp" "$cfp"
  done
  for m in "${metrics[@]}"; do
    echo "$m (${better[$m]} is better):"
    read -r pmed pq1 pq3 <<<"$(tr ' ' '\n' <<<"${parent_vals[$m]}" | grep . | quartiles)"
    read -r cmed cq1 cq3 <<<"$(tr ' ' '\n' <<<"${change_vals[$m]}" | grep . | quartiles)"
    show parent "$pmed" "$pq1" "$pq3"
    show change "$cmed" "$cq1" "$cq3"
    echo "  change better in ${wins[$m]:-0} and worse in ${losses[$m]:-0} of $pairs pairs"
    read -r gap iqr <<<"$(awk -v b="${better[$m]}" -v p="$pmed" -v c="$cmed" -v q1="$pq1" -v q3="$pq3" \
      'BEGIN { printf "%.17g %.17g\n", b == "higher" ? c - p : p - c, q3 - q1 }')"
    verdict "claim rule" GAIN "${wins[$m]:-0}" "$gap" "$iqr" || true
    if verdict "regression rule" REGRESSION "${losses[$m]:-0}" "$(awk -v g="$gap" 'BEGIN { printf "%.17g", -g }')" "$iqr"; then
      flagged+=("$workload $m")
    fi
  done
done
if ((${#flagged[@]})); then
  joined=$(printf '%s; ' "${flagged[@]}")
  echo "regression rule: REGRESSION on ${#flagged[@]} workload metric(s): ${joined%; }"
else
  echo "regression rule: nothing worse on any workload (${workloads[*]}; ${metrics[*]})"
fi
if ((status)); then
  echo "FINGERPRINT MISMATCH: the change moved the trajectory" >&2
fi
exit "$status"
