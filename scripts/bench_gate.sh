#!/usr/bin/env bash
# bench_gate.sh — the perf-regression gate. Reads the artifact bench.sh just
# wrote and fails if allocs/op on any benchmark tracked by the frozen
# baseline regressed more than 10% (with a +2 absolute slack so 1-2 alloc
# jitter on tiny benchmarks cannot trip it).
#
# allocs/op is the gate metric because it is deterministic on a given code
# revision; ns/op swings ±50% on shared runners and is reported only.
#
# Usage:
#   scripts/bench_gate.sh [artifact.json]   # default BENCH.json
set -euo pipefail
cd "$(dirname "$0")/.."

artifact="${1:-BENCH.json}"
if [ ! -f "$artifact" ]; then
  echo "bench_gate: $artifact not found — run scripts/bench.sh first" >&2
  exit 1
fi

GATE_ARTIFACT="$artifact" python3 - <<'EOF'
import json, os, sys

with open(os.environ["GATE_ARTIFACT"]) as f:
    doc = json.load(f)

current = doc.get("current", {})
baseline = doc.get("baseline", {}).get("benchmarks", {})
if not baseline:
    print("bench_gate: no frozen baseline embedded; nothing to gate")
    sys.exit(0)

THRESHOLD, SLACK = 1.10, 2
failures, rows = [], []
for name in sorted(baseline):
    base = baseline[name].get("allocs_op")
    cur = current.get(name, {}).get("allocs_op")
    if base is None:
        continue
    if cur is None:
        failures.append(f"{name}: tracked benchmark missing from current run")
        continue
    limit = max(base * THRESHOLD, base + SLACK)
    verdict = "ok" if cur <= limit else "REGRESSED"
    ns_base = baseline[name].get("ns_op")
    ns_cur = current.get(name, {}).get("ns_op")
    ns_note = ""
    if ns_base and ns_cur:
        ns_note = f"  (ns/op {ns_base:.0f} -> {ns_cur:.0f}, report-only)"
    rows.append(f"  {verdict:9s} {name}: allocs/op {base} -> {cur} (limit {limit:.0f}){ns_note}")
    if cur > limit:
        failures.append(f"{name}: allocs/op {base} -> {cur} (> {limit:.0f})")

print(f"bench_gate: {len(rows)} tracked benchmarks vs frozen baseline "
      f"({doc.get('baseline', {}).get('frozen_at', '?')})")
for r in rows:
    print(r)
if failures:
    print("\nbench_gate: FAIL")
    for f_ in failures:
        print("  " + f_)
    sys.exit(1)
print("\nbench_gate: PASS")
EOF
