#!/usr/bin/env python3
"""Builds and runs the repository benchmark; see bench/perf/README.md.

Run every workload (each in its own process, one after another):

    bench/perf/run.sh --seed=1 [--trace=DIR] [--smoke] [--out=FILE]

prints `workload metric value unit` for every metric and writes a results
JSON (seed, git revision, nproc, compiler, every metric) for compare.py.
With --trace=DIR it also writes DIR/<workload>.json (benchmark spans as
Chrome trace JSON, loadable in Perfetto) and DIR/per_layer.json.

Run one workload, ending with a one-line JSON result:

    bench/perf/run.sh --workload kv_serving --seed 3 --seconds 10 --trace 0

`--trace 0` reports the end-to-end metrics BENCHMARK.json lists, `--trace 1`
its per-layer metrics (spans go to build-perf/traces/).  Any other --trace
value is a directory, as above.

The build lives in build-perf/ at the repository root.  Uses only the
Python standard library.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD = ROOT / "build-perf"
DRIVER = BUILD / "perf_driver"
WORKLOADS = ["paper_verified", "fabric_collectives", "kv_serving", "sharded_ring"]
# The end-to-end metrics every run prints first, in this order.
HEADLINE = ["wall_s", "setup_s", "peak_rss_mb", "fail_ratio", "sim_s", "sim_p99_ms"]
# Each workload process must end well inside the 180 s a run may take.
DRIVER_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "bench" / "perf"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        p = subprocess.run(cmd, capture_output=True, text=True)
        if p.returncode != 0:
            log(p.stdout + p.stderr)
            log("run.py: build failed: " + " ".join(cmd))
            sys.exit(1)


def git_revision():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True)
        if rev.returncode != 0:
            return "unknown"
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                               cwd=ROOT, env=env, capture_output=True, text=True)
        return rev.stdout.strip() + ("+dirty" if dirty.stdout.strip() else "")
    except OSError:
        return "unknown"


def run_workload(name, args, trace_dir):
    cmd = [str(DRIVER), "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.smoke:
        cmd.append("--smoke")
    if trace_dir:
        cmd += ["--trace-dir", str(trace_dir)]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {name} did not finish within {DRIVER_TIMEOUT_S} s")
        return None
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(p.stderr)
        log(f"run.py: {name} exited {p.returncode} without a result")
        return None
    if p.returncode != 0:
        log(f"run.py: {name} exited {p.returncode}: " + "; ".join(result["errors"]))
    for m in result["metrics"].values():
        samples = m.get("samples")
        if samples and len(samples) >= 2:
            m["q1"], _, m["q3"] = statistics.quantiles(samples, n=4)
    return result


def fmt(v):
    return "n/a" if v is None else repr(v)


def print_lines(result):
    w, metrics = result["workload"], result["metrics"]
    names = [n for n in HEADLINE if n in metrics]
    names += sorted(n for n in metrics if n not in HEADLINE)
    for n in names:
        m = metrics[n]
        line = f"{w} {n} {fmt(m['value'])} {m['unit']}"
        if "q1" in m:
            line += f"  (q1 {m['q1']:.6g} q3 {m['q3']:.6g} n={len(m['samples'])})"
        elif n == "sim_p99_ms" and m["value"] is not None:
            line += f"  (requests={fmt(metrics['sim_requests']['value'])})"
        print(line, flush=True)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run only this workload (default: all)")
    ap.add_argument("--seed", type=int, default=1,
                    help="workload seed (1 is the default, 2 is held out)")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="rep wall time to accumulate per workload, at least 3 reps "
                         "(default: BENCHMARK.json's run_seconds)")
    ap.add_argument("--trace", default="0",
                    help="0: untraced; 1: traced, spans to build-perf/traces; "
                         "otherwise a directory for the traced outputs")
    ap.add_argument("--smoke", action="store_true",
                    help="same code path at ~1/20 of the size, one rep")
    ap.add_argument("--out", type=Path,
                    help="results JSON (default: build-perf/results-seed<N>.json)")
    args = ap.parse_args()
    names = [args.workload] if args.workload else WORKLOADS
    trace_dir = None
    if args.trace == "1":
        trace_dir = BUILD / "traces"
    elif args.trace != "0":
        trace_dir = Path(args.trace).resolve()

    build()
    if trace_dir:
        trace_dir.mkdir(parents=True, exist_ok=True)

    results = {}
    for name in names:
        result = run_workload(name, args, trace_dir)
        if result is None:
            result = {"workload": name, "attempted": 1, "failed": 1,
                      "errors": ["no result"], "metrics": {}}
        print_lines(result)
        results[name] = result

    compiler = next((r["compiler"] for r in results.values() if "compiler" in r), "unknown")
    out = args.out or BUILD / f"results-seed{args.seed}{'-smoke' if args.smoke else ''}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "schema": "acc-perf-results/v1",
        "seed": args.seed, "smoke": args.smoke, "seconds": args.seconds,
        "traced": trace_dir is not None,
        "git_revision": git_revision(), "nproc": os.cpu_count(), "compiler": compiler,
        "workloads": results,
    }, indent=1) + "\n")
    log(f"run.py: results in {out}")
    if trace_dir:
        per_layer = {n: {"metrics": r["metrics"], **r.get("trace", {})}
                     for n, r in results.items()}
        (trace_dir / "per_layer.json").write_text(json.dumps(per_layer, indent=1) + "\n")

    correct = all(r["failed"] == 0 for r in results.values())
    if len(names) == 1:
        # The one-line result: BENCHMARK.json's end-to-end metrics, or its
        # per-layer ones on a traced run.  A metric that does not apply to
        # this workload (e.g. a KV latency on the FFT grid) reads 0.
        r = results[names[0]]
        wanted = spec["per_layer" if trace_dir else "end_to_end"]
        metrics = {}
        for m in wanted:
            value = r["metrics"].get(m["name"], {}).get("value")
            metrics[m["name"]] = {"value": 0.0 if value is None else value,
                                  "unit": m["unit"]}
        print(json.dumps({"correct": correct, "attempted": r["attempted"],
                          "failed": r["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
