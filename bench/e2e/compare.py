#!/usr/bin/env python3
"""Compares skalla-bench runs of a parent commit and a change.

    python3 bench/e2e/compare.py --parent p1.json p2.json ... \
                                 --change c1.json c2.json ...

Each file is a result written by `run.py --json-out F` (or skalla-bench
--json-out), or captured stdout whose last line is the result object. Run
the two sides alternately and list the files in run order: the i-th parent
run and the i-th change run form a pair.

Per (workload, metric), with direction and bound from BENCHMARK.json:
  - each side's median and quartiles (statistics.quantiles, n=4);
  - the share of pairs the change won (ties count for neither side);
  - REGRESSION when the change's median is worse than the parent's by more
    than the bound;
  - UNRESOLVED when the parent's own quartile spread exceeds the bound,
    unless every change run is better than every parent run;
  - GAIN when at least ten pairs ran, the change won at least 9 in 10 of
    them, and the medians differ by more than the parent's quartile spread.
Per-layer metrics have no bound: they get medians and the pair share only.
Exits 1 on any regression, unresolved metric, or failed run.
"""

import argparse
import json
import os
import statistics
import sys

DEFAULT_BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "..", "..", "BENCHMARK.json")


def load_run(path):
    """Returns (ok, {(workload, metric): value}) for one result file."""
    with open(path) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    data = json.loads(lines[-1])
    workload = data.get("workload", "-")
    result = data.get("result", data)
    values = {}
    for name, metric in result["metrics"].items():
        w, _, m = name.rpartition("/")
        values[(w or workload, m)] = metric["value"]
    return result["correct"] and result["failed"] == 0, values


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def compare(spec, parent, change):
    """One row of the report: (verdict, text)."""
    lower = spec["better"] == "lower"
    better = (lambda c, p: c < p) if lower else (lambda c, p: c > p)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    c_q1, c_q3 = quartiles(change)
    pairs = list(zip(parent, change))
    won = sum(1 for p, c in pairs if better(c, p))
    share = won / len(pairs) if pairs else 0.0
    spread = p_q3 - p_q1
    verdict = ""
    if "bound" in spec and p_med != 0:
        worse = (c_med - p_med) / abs(p_med) if lower else \
            (p_med - c_med) / abs(p_med)
        all_better = all(better(c, p) for c in change for p in parent)
        if worse > spec["bound"]:
            verdict = "REGRESSION"
        elif spread / abs(p_med) > spec["bound"] and not all_better:
            verdict = "UNRESOLVED"
    if not verdict and len(pairs) >= 10 and share >= 0.9 and \
            better(c_med, p_med) and abs(c_med - p_med) > spread:
        verdict = "GAIN"
    text = (f"parent {p_med:.6g} [{p_q1:.6g}, {p_q3:.6g}]  "
            f"change {c_med:.6g} [{c_q1:.6g}, {c_q3:.6g}]  "
            f"won {won}/{len(pairs)}")
    return verdict, text


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", default=DEFAULT_BENCH,
                        help="BENCHMARK.json with directions and bounds")
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args()

    with open(args.bench) as f:
        bench = json.load(f)
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    sides = {}
    bad_runs = []
    for side in ("parent", "change"):
        runs = []
        for path in getattr(args, side):
            ok, values = load_run(path)
            if not ok:
                bad_runs.append(path)
            runs.append(values)
        sides[side] = runs

    keys = sorted({k for run in sides["parent"] for k in run})
    blocking = 0
    for workload, metric in keys:
        spec = specs.get(metric)
        parent = [r[(workload, metric)] for r in sides["parent"]
                  if (workload, metric) in r]
        change = [r[(workload, metric)] for r in sides["change"]
                  if (workload, metric) in r]
        if spec is None or not parent or not change:
            continue
        verdict, text = compare(spec, parent, change)
        blocking += verdict in ("REGRESSION", "UNRESOLVED")
        print(f"{workload:10s} {metric:34s} {verdict:10s} {text}")
    for path in bad_runs:
        print(f"FAILED RUN: {path} reports wrong results or failed requests")
    return 1 if blocking or bad_runs else 0


if __name__ == "__main__":
    sys.exit(main())
