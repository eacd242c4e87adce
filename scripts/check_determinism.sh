#!/usr/bin/env bash
# Cross-environment determinism check for the simulator's trace digests.
#
# The determinism contract (docs/TRACING.md) says a run's trace digest is
# a pure function of (configuration, seeds) — independent of address-space
# layout, locale, and wall-clock.  The in-process tests
# (trace_determinism_test) prove same-process replay; this script proves
# the stronger cross-process property by running the same workloads in
# separate processes under deliberately different environments:
#
#   * fresh ASLR layout per process (plus an explicitly randomized layout
#     via `setarch -R`'s complement when available);
#   * different locales (C vs. any available UTF-8 locale), which would
#     expose locale-dependent formatting leaking into digests;
#   * twice through the determinism test binary, to catch flakiness;
#   * each ACC_TRACE file of a multi-LP run labelled with its run's
#     digest.
#
# Usage: scripts/check_determinism.sh [build-dir]
#   ACC_CHECK_SANITIZE=1   also configure the build with -DACC_SANITIZE=ON
#                          (ASan changes the heap layout dramatically, a
#                          good stressor for pointer-hashing bugs).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-determinism}"

cmake_flags=()
if [[ "${ACC_CHECK_SANITIZE:-0}" != "0" ]]; then
  cmake_flags+=(-DACC_SANITIZE=ON)
  echo "== configuring with ASan/UBSan =="
fi

echo "== building ($build_dir) =="
cmake -B "$build_dir" -S "$repo_root" "${cmake_flags[@]+"${cmake_flags[@]}"}" >/dev/null
cmake --build "$build_dir" -j >/dev/null

# Pick a second locale if the system has one; C always exists.
alt_locale="C"
if command -v locale >/dev/null 2>&1; then
  alt_locale="$(locale -a 2>/dev/null | grep -im1 'utf-\?8' || echo C)"
fi

# Wrapper that re-randomizes ASLR explicitly when setarch supports it
# (no-op fallback keeps the script portable).
aslr_wrap() {
  if command -v setarch >/dev/null 2>&1 &&
     setarch "$(uname -m)" -R true >/dev/null 2>&1; then
    # -R *disables* ASLR: running once with and once without it guarantees
    # two different address-space layouts even if system ASLR is off.
    if [[ "$1" == "fixed" ]]; then
      shift
      setarch "$(uname -m)" -R "$@"
      return
    fi
  fi
  shift
  "$@"
}

# Digest probe: an example run that prints "acc-trace-digest <hex>" per
# cluster via the ACC_TRACE_DIGEST environment hook.  $3 picks the probe
# binary: quickstart exercises healthy runs, fault_injection a
# fault-injected run (scripted storm + seeded loss chain), topology_demo
# multi-hop fabrics (fat-tree and torus routing, per-hop queuing, an
# interior-link outage), collective_offload the collective backends
# (host trees over TCP and INIC plus the card-resident NIC engine's
# trigger tables), and failover_demo the adaptive-routing plane (a
# permanent mid-collective link cut: link-state detection instants,
# deterministic re-convergence, go-back-N reroute escalation), and
# kv_serving the open-loop serving workload (Poisson arrivals, Zipf
# keys, per-request latency histogram, with a sustained bursty-loss
# storm on both transport planes), and parallel_engine_demo the
# window-scheduled parallel engine (a SimCluster ring on a 20-switch
# fat tree, one LP at 1 worker thread and per-switch LPs at 2/4/8,
# inside one process; the binary exits non-zero if any thread count
# diverges, and its digest lines let this script compare the same runs
# across environments) — together covering the healthy,
# faulted, multi-hop, on-card-collective, failover, serving and
# parallel-engine parts of the determinism contract (docs/FAULTS.md,
# docs/NETWORK.md, docs/COLLECTIVES.md, docs/SERVING.md,
# docs/ENGINE.md).
digests_of() {  # $1: aslr mode, $2: locale, $3: probe binary
  local mode="$1" loc="$2" probe="$3"
  aslr_wrap "$mode" env LC_ALL="$loc" ACC_TRACE_DIGEST=1 \
    "$build_dir/examples/$probe" 2>&1 >/dev/null |
    grep '^acc-trace-digest' || true
}

fail=0
for probe in quickstart fault_injection topology_demo collective_offload \
             failover_demo kv_serving parallel_engine_demo; do
  echo "== cross-environment digest comparison (examples/$probe) =="
  baseline="$(digests_of varied C "$probe")"
  if [[ -z "$baseline" ]]; then
    echo "FAIL: no digests emitted (ACC_TRACE_DIGEST hook broken?)" >&2
    exit 1
  fi
  for mode in varied fixed; do
    for loc in C "$alt_locale"; do
      got="$(digests_of "$mode" "$loc" "$probe")"
      if [[ "$got" != "$baseline" ]]; then
        echo "FAIL: digest mismatch (probe=$probe aslr=$mode locale=$loc)" >&2
        echo "--- expected ---"; echo "$baseline"
        echo "--- got ---"; echo "$got"
        fail=1
      else
        echo "ok: probe=$probe aslr=$mode locale=$loc"
      fi
    done
  done
done

# Exported traces: ACC_TRACE writes one Chrome JSON file per cluster in
# destruction order (path, path.2, ...), and ACC_TRACE_DIGEST prints one
# digest line per cluster in the same order.  Each file's
# otherData.digest must equal the digest line with the same index; on
# the per-switch runs of parallel_engine_demo that holds only when the
# file carries every LP lane, not LP 0's slice.
echo "== exported trace digests (examples/parallel_engine_demo) =="
trace_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir"' EXIT
ACC_TRACE="$trace_dir/run.json" ACC_TRACE_DIGEST=1 \
  "$build_dir/examples/parallel_engine_demo" 2>"$trace_dir/stderr" >/dev/null
index=0
while read -r _ want; do
  index=$((index + 1))
  file="$trace_dir/run.json"
  [[ $index -gt 1 ]] && file+=".$index"
  got="$(grep -o '"otherData":{"digest":"[0-9a-f]*"' "$file" 2>/dev/null |
         grep -o '[0-9a-f]\{16\}' || true)"
  if [[ "$got" != "$want" ]]; then
    echo "FAIL: $(basename "$file") digest '$got' != line $index ($want)" >&2
    fail=1
  else
    echo "ok: $(basename "$file") digest $got"
  fi
done < <(grep '^acc-trace-digest' "$trace_dir/stderr")
if [[ $index -eq 0 ]]; then
  echo "FAIL: no digests emitted with ACC_TRACE set" >&2
  fail=1
fi

echo "== determinism test suite, twice =="
for round in 1 2; do
  loc="$([[ $round == 1 ]] && echo C || echo "$alt_locale")"
  mode="$([[ $round == 1 ]] && echo varied || echo fixed)"
  if aslr_wrap "$mode" env LC_ALL="$loc" \
      "$build_dir/tests/trace_determinism_test" >/dev/null; then
    echo "ok: round $round (aslr=$mode locale=$loc)"
  else
    echo "FAIL: trace_determinism_test round $round (aslr=$mode locale=$loc)" >&2
    fail=1
  fi
done

if [[ $fail -ne 0 ]]; then
  echo "DETERMINISM CHECK FAILED" >&2
  exit 1
fi
echo "determinism check passed"
