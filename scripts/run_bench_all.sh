#!/usr/bin/env bash
# Builds and runs the unified benchmark driver (docs/BENCHMARKS.md).
#
# Usage: scripts/run_bench_all.sh [--reduced] [extra bench_all flags...]
#   --reduced   CI-sized grid + the serial-digest isolation gate + the
#               reduced golden table, the same gate ctest enforces
#               (equivalent to --points=reduced --check-digests
#               --check-golden=bench/golden.json)
#
# Output: BENCH_results.json in the repository root (override with
# --out=PATH), plus the per-suite tables on stdout.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${BUILD_DIR:-$repo_root/build}"

args=("--out=$repo_root/BENCH_results.json")
for arg in "$@"; do
  if [[ "$arg" == "--reduced" ]]; then
    args+=(--points=reduced --check-digests
           "--check-golden=$repo_root/bench/golden.json")
  else
    args+=("$arg")
  fi
done

cmake -B "$build_dir" -S "$repo_root" >/dev/null
cmake --build "$build_dir" -j --target bench_all >/dev/null

exec "$build_dir/bench/bench_all" "${args[@]}"
