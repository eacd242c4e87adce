#!/usr/bin/env python3
"""Compares two sets of benchmark results (run.py's results JSON files).

    bench/perf/compare.py --base a1.json a2.json ... --head b1.json b2.json ...

Give each side's files in the order they were run; with interleaved runs
(a1, b1, a2, b2, ...) base[i] and head[i] form pair i.

For every workload and end-to-end metric with a bound in BENCHMARK.json
it prints each side's median and quartiles and how many pairs the head
side wins (ties count for neither), and labels the metric:

  worse         the head median is worse than the base median by more
                than the bound;
  unresolved    a side's quartile spread exceeds the bound, and not every
                head run beats every base run;
  better        the head wins at least 9 of every 10 pairs and the medians
                differ by more than the base side's quartile spread (or,
                when the spread exceeds the bound, every head run beats
                every base run);
  within-bound  otherwise.

setup_s also gets an absolute tolerance of 5 ms: a sub-millisecond set-up
cannot be timed to a few percent.  Deterministic metrics (sim_s,
sim_p99_ms, fail_ratio and every count) must be identical on both sides
and are labelled identical or changed; they are only compared when every
file used the same seed.

Exit status 1 when any metric is worse or changed, or fail_ratio rose.
Uses only the Python standard library.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
ABSOLUTE_TOLERANCE = {"setup_s": 0.005}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def load(paths):
    return [json.loads(Path(p).read_text()) for p in paths]


def values(results, workload, metric):
    out = []
    for r in results:
        m = r["workloads"].get(workload, {}).get("metrics", {}).get(metric)
        out.append(None if m is None else m["value"])
    return out


def banded(name, base, head, bound, better):
    sign = 1 if better == "lower" else -1  # > 0 means worse
    b_med, h_med = statistics.median(base), statistics.median(head)
    b_q, h_q = quartiles(base), quartiles(head)
    tol = max(bound * abs(b_med), ABSOLUTE_TOLERANCE.get(name, 0.0))
    spread = max(b_q[1] - b_q[0], h_q[1] - h_q[0])
    pairs = list(zip(base, head))
    wins = sum(1 for b, h in pairs if sign * (h - b) < 0)
    worse_by = sign * (h_med - b_med)
    all_better = all(sign * (h - b) < 0 for h in head for b in base)
    if spread > tol:
        verdict = "better" if all_better else "unresolved"
    elif worse_by > tol:
        verdict = "worse"
    elif pairs and wins >= 0.9 * len(pairs) and -worse_by > b_q[1] - b_q[0]:
        verdict = "better"
    else:
        verdict = "within-bound"
    delta = (h_med - b_med) / b_med if b_med else float("nan")
    row = (f"{b_med:.6g} [{b_q[0]:.6g}, {b_q[1]:.6g}]",
           f"{h_med:.6g} [{h_q[0]:.6g}, {h_q[1]:.6g}]",
           f"{delta:+.1%} (bound {bound:.0%})", f"{wins}/{len(pairs)}")
    return verdict, row


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", nargs="+", required=True, help="results of the parent")
    ap.add_argument("--head", nargs="+", required=True, help="results of the change")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, head = load(args.base), load(args.head)
    seeds = {r["seed"] for r in base + head}
    if len(seeds) > 1:
        print(f"note: files use seeds {sorted(seeds)}; deterministic metrics not compared")
    workloads = [w["name"] for w in spec["workloads"]]

    failing = []
    print(f"{'workload':20} {'metric':28} {'base median [q1, q3]':34} "
          f"{'head median [q1, q3]':34} {'delta':22} {'wins':6} verdict")
    for w in workloads:
        for m in spec["end_to_end"]:
            b, h = values(base, w, m["name"]), values(head, w, m["name"])
            if None in b or None in h:
                verdict, row = "missing", ("", "", "", "")
            else:
                verdict, row = banded(m["name"], b, h, m["bound"], m["better"])
            print(f"{w:20} {m['name']:28} {row[0]:34} {row[1]:34} {row[2]:22} "
                  f"{row[3]:6} {verdict}")
            if verdict in ("worse", "missing"):
                failing.append(f"{w} {m['name']} {verdict}")

        b_fail = values(base, w, "fail_ratio")
        h_fail = values(head, w, "fail_ratio")
        if None in b_fail + h_fail or max(h_fail) > max(b_fail):
            failing.append(f"{w} fail_ratio rose: {b_fail} -> {h_fail}")
        if len(seeds) > 1:
            continue
        exact = sorted({name for r in base + head
                        for name, m in r["workloads"].get(w, {}).get("metrics", {}).items()
                        if m.get("exact")})
        changed = [name for name in exact
                   if len(set(map(repr, values(base, w, name) + values(head, w, name)))) > 1]
        print(f"{w:20} {len(exact)} deterministic metrics: "
              + ("identical" if not changed else "changed: " + ", ".join(changed)))
        failing += [f"{w} {name} changed" for name in changed]

    if failing:
        print("FAIL: " + "; ".join(failing))
        sys.exit(1)
    print("OK")


if __name__ == "__main__":
    main()
