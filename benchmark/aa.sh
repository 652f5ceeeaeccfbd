#!/usr/bin/env bash
# A/A check: run the four workloads twice on one build with one seed and
# compare the two sets of end-to-end metrics against the bounds in
# BENCHMARK.json. Host metrics (tasks_per_s, setup_s, peak_rss_mib) may
# differ by at most their bound; simulated metrics must not differ at all
# (same seed => same trajectory, bit for bit). Exits non-zero otherwise.
#
# usage: benchmark/aa.sh [seed] [seconds]      (from the repo root)
set -euo pipefail
cd "$(dirname "$0")/.."

seed="${1:-2024}"
seconds="${2:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}"
out="benchmark/out/aa"
mkdir -p "$out"

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/flexsched-benchmark"

for pass in a b; do
  for workload in metro_steady metro_overload metro_faults backbone_dag; do
    echo "aa: pass $pass, $workload" >&2
    "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
      | tail -n 1 > "$out/$workload.$pass.json"
  done
done

python3 - "$out" <<'EOF'
import json, sys

out = sys.argv[1]
spec = json.load(open("BENCHMARK.json"))
host = {"tasks_per_s", "setup_s", "peak_rss_mib"}
bad = 0
for w in (w["name"] for w in spec["workloads"]):
    a, b = (json.load(open(f"{out}/{w}.{p}.json")) for p in "ab")
    print(f"== {w}")
    for m in spec["end_to_end"]:
        name = m["name"]
        va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
        rel = abs(vb - va) / abs(va) if va else float(vb != va)
        if name in host:
            ok, rule = rel <= m["bound"], f"bound {m['bound']:.2f}"
        else:
            ok, rule = va == vb, "must be identical"
        bad += not ok
        flag = "ok  " if ok else "FAIL"
        print(f"  {flag} {name:20s} {va:16.6f} {vb:16.6f}  diff {rel:8.4%}  ({rule})")
sys.exit(1 if bad else 0)
EOF
