#!/usr/bin/env bash
# Snapshot scheduler performance into BENCH_<N>.json at the repo root.
#
# Usage: scripts/bench_snapshot.sh [N]
#   N defaults to 1. The snapshot records, per scenario point, the
#   median/mean ns per scheduling decision (plus scalar quality metrics
#   such as blocking probabilities), so successive PRs accumulate a
#   comparable performance trajectory. Since BENCH_4 the snapshot merges
#   several sources:
#     * sched_throughput  — decision/repair throughput (BENCH_1..3 point
#       names preserved),
#     * closure_ablation  — KMB vs Mehlhorn closure latency at k up to 200
#       terminals on metro / spine-leaf / fat-tree + blocking no-regression,
#     * gamma_sweep       — wavelength-headroom weight vs blocking
#       probability under spectral pressure,
#     * overload_sweep    — (since BENCH_6) sustained 1x/2x/4x/10x storms
#       through the admission gate: per-class blocking + shed rate and
#       gate/decision latency percentiles (`overload/*`); the repair storm
#       section also splits `blocking-prob/{repair,resolve}-<class>/...`
#       per tenant class so the Critical series is trackable,
#     * horizon_sweep     — (since BENCH_7) the event-driven testbed at
#       10k/100k/10^6-task horizons in bounded-memory mode: events/s,
#       peak pending events (the engine's heap high-water mark), peak
#       RSS, true sojourn / queueing tails, and the seed-pinned summary
#       fingerprint in two exact 32-bit halves (`horizon/*`),
#     * closure_scaling   — (since BENCH_9) the amortised closure engine
#       on metro-15 / fat-tree-10 / continental-backbone fabrics:
#       cached/incremental vs from-scratch per-decision latency, the
#       speedup factor (backbone acceptance bar: >= 3x), decisions/s and
#       the cache hit / repair / full-solve / fallback counters
#       (`closure/*/<fabric>`),
#     * dag_sweep         — (since BENCH_10) DAG-job gang scheduling on
#       metro / fat-tree / reduced-backbone fabrics under growing outage
#       storms: jobs completed/shed, gang commits/rejections, fault-time
#       repair decisions, per-job makespan p50/p99 and critical-path
#       inflation p50/p99/max (`dag/*/<fabric>/f<faults>`).
set -euo pipefail
cd "$(dirname "$0")/.."
N="${1:-1}"
OUT="$PWD/BENCH_${N}.json"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

FLEXSCHED_BENCH_JSON="$TMP/throughput.json" \
  cargo bench -p flexsched-bench --bench sched_throughput
FLEXSCHED_BENCH_JSON="$TMP/closure.json" \
  cargo bench -p flexsched-bench --bench closure_ablation
FLEXSCHED_BENCH_JSON="$TMP/gamma.json" \
  cargo run --release -p flexsched-bench --bin gamma_sweep
FLEXSCHED_BENCH_JSON="$TMP/overload.json" \
  cargo run --release -p flexsched-bench --bin overload_sweep
FLEXSCHED_BENCH_JSON="$TMP/horizon.json" \
  cargo run --release -p flexsched-bench --bin horizon_sweep
FLEXSCHED_BENCH_JSON="$TMP/closure_scaling.json" \
  cargo run --release -p flexsched-bench --bin closure_scaling
FLEXSCHED_BENCH_JSON="$TMP/dag.json" \
  cargo run --release -p flexsched-bench --bin dag_sweep

jq -s 'add' "$TMP/throughput.json" "$TMP/closure.json" "$TMP/gamma.json" \
  "$TMP/overload.json" "$TMP/horizon.json" \
  "$TMP/closure_scaling.json" "$TMP/dag.json" > "$OUT"
echo "wrote $OUT"
