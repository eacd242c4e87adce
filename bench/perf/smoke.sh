#!/usr/bin/env bash
# Smoke check of the benchmark: builds it, runs every workload at ~1/20 of
# its size with one rep and tracing on, and checks that
#   * every metric BENCHMARK.json names is printed, with its unit, for
#     every workload;
#   * every trace file is valid JSON;
#   * the one-workload form ends with the one-line JSON result.
# Exits non-zero on any failure.  Usage: bench/perf/smoke.sh
set -euo pipefail

root="$(cd "$(dirname "$0")/../.." && pwd)"
out="$root/build-perf/smoke"
rm -rf "$out"
mkdir -p "$out"

bash "$root/bench/perf/run.sh" --smoke --trace="$out/trace" \
  --out="$out/results.json" > "$out/lines.txt"
bash "$root/bench/perf/run.sh" --smoke --workload kv_serving --trace 0 \
  > "$out/one.txt"

python3 - "$root/BENCHMARK.json" "$out" <<'EOF'
import json, sys
from pathlib import Path

spec = json.loads(Path(sys.argv[1]).read_text())
out = Path(sys.argv[2])
printed = {}
for line in (out / "lines.txt").read_text().splitlines():
    w, metric, _value, unit = line.split()[:4]
    printed[(w, metric)] = unit
problems = []
for w in (x["name"] for x in spec["workloads"]):
    for m in spec["end_to_end"] + spec["per_layer"]:
        unit = printed.get((w, m["name"]))
        if unit != m["unit"]:
            problems.append(f"{w} {m['name']}: printed unit {unit!r}, expected {m['unit']!r}")
    json.loads((out / "trace" / f"{w}.json").read_text())
json.loads((out / "trace" / "per_layer.json").read_text())
one = json.loads((out / "one.txt").read_text().splitlines()[-1])
if sorted(one) != ["attempted", "correct", "failed", "metrics"] or not one["correct"]:
    problems.append(f"bad one-line result: {one}")
elif sorted(one["metrics"]) != sorted(m["name"] for m in spec["end_to_end"]):
    problems.append(f"one-line result lacks end-to-end metrics: {sorted(one['metrics'])}")
if problems:
    print("smoke: FAIL\n  " + "\n  ".join(problems))
    sys.exit(1)
print(f"smoke: OK ({len(printed)} workload metrics printed)")
EOF
