#!/usr/bin/env python3
"""Builds skalla-bench from this checkout and runs it.

    python3 bench/e2e/run.py --workload adhoc --seed 1 --seconds 20 --trace 0

The build (bench/e2e/CMakeLists.txt: the skalla library, skalla-site and
skalla-bench) goes to .bench_build at the checkout root; its output goes to
stderr. skalla-bench's output passes through unchanged, so the last stdout
line is the result object {"correct", "attempted", "failed", "metrics"}:
the end-to-end metrics, or with --trace 1 the per-layer ones. --workload
all runs the four workloads in turn and prefixes each metric with its
workload. Exits non-zero when the build fails, a request fails, or a
result is wrong.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j",
                  str(min(4, os.cpu_count() or 1))])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="adhoc, dashboard, paged, ingest, or all")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20,
                        help="timed window per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json-out", help="also write the result here")
    args = parser.parse_args()

    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 2
    command = [os.path.join(BUILD, "skalla-bench"),
               f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}",
               f"--work-dir={os.path.join(BUILD, 'work')}"]
    if args.trace:
        command.append("--traced")
    if args.json_out:
        command.append(f"--json-out={os.path.abspath(args.json_out)}")
    # skalla-bench reaps its site processes on every exit path; the timeout
    # only guards against a hang (its sites die with it).
    timeout = 170 * (4 if args.workload == "all" else 1)
    try:
        return subprocess.run(command, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: skalla-bench ran past {timeout} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
