#!/usr/bin/env bash
# Runs the repository benchmark (bench/perf) on a base revision and on
# this checkout in interleaved pairs, then compares the two sides with
# bench/perf/compare.py.
#
# Usage: scripts/perf_pairs.sh --base REV [--pairs N] [--seed S] [--workload W]
#   --base REV     revision to compare against (a hash, a branch, HEAD~1)
#   --pairs N      interleaved base/head pairs (default 10)
#   --seed S       workload seed (default 1; 2 is the held-out seed)
#   --workload W   one bench/perf workload (default: all four)
#
# The head side is this checkout as it stands, uncommitted edits
# included.  The base side is REV exported with `git archive` into a
# temporary directory under $TMPDIR (removed on exit), so nothing is
# checked out or registered in this repository.  Each tree builds its
# own build-perf/.  Pair i runs the base first when i is even and the
# head first when i is odd.  Every run's results JSON is kept in
# build-perf/pairs/<base>-seed<S>[-<W>]/ of this checkout, one directory
# per base, seed and workload (no suffix for all four), so a --workload
# run never erases the files of an all-workload run or of another
# workload; only a rerun of the same set replaces its own directory.
#
# Exit status is compare.py's verdict, 1 when a metric is worse or
# changed; with --workload, on that workload alone.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
base_rev="" pairs=10 seed=1 workload=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --base) base_rev="$2"; shift 2 ;;
    --pairs) pairs="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --workload) workload=(--workload "$2"); shift 2 ;;
    *) echo "perf_pairs.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
if [[ -z "$base_rev" ]]; then
  echo "perf_pairs.sh: --base REV is required" >&2
  exit 2
fi
base_hash="$(git -C "$repo_root" rev-parse --short "$base_rev^{commit}")"

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
git -C "$repo_root" archive "$base_hash" | tar -x -C "$work"

out="$repo_root/build-perf/pairs/$base_hash-seed$seed"
if [[ ${#workload[@]} -gt 0 ]]; then out+="-${workload[1]}"; fi
rm -rf "$out"
mkdir -p "$out"

run_side() {  # run_side base|head PAIR
  local tree="$repo_root"
  [[ "$1" == base ]] && tree="$work"
  echo "perf_pairs.sh: pair $2, $1" >&2
  "$tree/bench/perf/run.sh" "${workload[@]}" --seed "$seed" \
    --out "$out/$1-$2.json" >/dev/null
}

base_files=() head_files=()
for ((i = 0; i < pairs; ++i)); do
  if ((i % 2 == 0)); then
    run_side base "$i"; run_side head "$i"
  else
    run_side head "$i"; run_side base "$i"
  fi
  base_files+=("$out/base-$i.json")
  head_files+=("$out/head-$i.json")
done

status=0
report="$(python3 "$repo_root/bench/perf/compare.py" \
  --base "${base_files[@]}" --head "${head_files[@]}")" || status=$?
if [[ ${#workload[@]} -eq 0 ]]; then
  echo "$report"
  exit "$status"
fi
# compare.py judges every workload in BENCHMARK.json, and the ones not
# run read "missing": keep the header and W's rows, and judge W alone.
w="${workload[1]}"
grep -E "^(workload |note: |$w )" <<<"$report"
failing="$(sed -n 's/^FAIL: //p' <<<"$report" | tr ';' '\n' |
  sed 's/^ //' | grep "^$w " || true)"
if [[ -n "$failing" ]]; then
  echo "FAIL: ${failing//$'\n'/; }"
  exit 1
fi
echo OK
