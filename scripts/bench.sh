#!/usr/bin/env bash
# bench.sh — run the E1–E19 experiment suite with -benchmem and emit a
# machine-readable JSON file mapping each benchmark to ns/op, B/op and
# allocs/op, so the repo accumulates a perf trajectory run over run.
#
# Usage:
#   scripts/bench.sh [benchtime]     # default 20x; CI uses 20x to match the
#                                    # frozen baseline's warmup amortization
#
# Environment:
#   OUT=path.json   output file (default BENCH.json at the repo root)
#
# Benchmarks run at -cpu 1 so allocs/op — the container-stable metric the
# perf gate (bench_gate.sh) compares — is deterministic across machines with
# different core counts (lane counts default to GOMAXPROCS). ns/op remains
# report-only. E11 raises GOMAXPROCS internally for its 8 durable writers.
#
# If scripts/bench_baseline.json exists (the frozen allocs/op baseline), its
# contents are embedded under "baseline" so before/after always travel
# together in one artifact.
set -euo pipefail
cd "$(dirname "$0")/.."

benchtime="${1:-20x}"
out="${OUT:-BENCH.json}"
raw="$(go test -run '^$' -bench 'BenchmarkE[0-9]+_' -benchmem -benchtime "$benchtime" -cpu 1 .)"
echo "$raw"

BENCH_RAW="$raw" BENCH_TIME="$benchtime" BENCH_OUT="$out" python3 - <<'EOF'
import json, os, re

raw = os.environ["BENCH_RAW"]
current = {}
for line in raw.splitlines():
    if not line.startswith("Benchmark"):
        continue
    fields = line.split()
    name = re.sub(r"-\d+$", "", fields[0])
    entry = {}
    for i, f in enumerate(fields):
        if f == "ns/op":
            entry["ns_op"] = float(fields[i - 1])
        elif f == "B/op":
            entry["b_op"] = int(fields[i - 1])
        elif f == "allocs/op":
            entry["allocs_op"] = int(fields[i - 1])
    if entry:
        current[name] = entry

doc = {"benchtime": os.environ["BENCH_TIME"], "current": current}
base_path = os.path.join("scripts", "bench_baseline.json")
if os.path.exists(base_path):
    with open(base_path) as f:
        doc["baseline"] = json.load(f)

out = os.environ["BENCH_OUT"]
with open(out, "w") as f:
    json.dump(doc, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"wrote {out} ({len(current)} benchmarks)")
EOF
