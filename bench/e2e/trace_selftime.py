#!/usr/bin/env python3
"""Self time per span name in a skalla-bench trace.

    python3 bench/e2e/trace_selftime.py .bench_build/work/trace_adhoc.json

Reads the Chrome trace-event file a traced run writes (`run.py --trace 1`
or `skalla-bench --traced`). A span's self time is its duration minus the
part of it that its child spans (args.parent == its args.id) cover; the
union is taken, so children running in parallel are not counted twice.
Prints, per span name, the number of spans, total and self milliseconds,
and self time per span, largest self time first.
"""

import argparse
import collections
import json
import sys


def covered(start, end, intervals):
    """Length of [start, end) covered by the union of `intervals`."""
    total, cursor = 0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace")
    args = parser.parse_args()

    with open(args.trace) as f:
        events = json.load(f)
    spans = [e for e in events if e.get("ph") == "X"]
    children = collections.defaultdict(list)
    for e in spans:
        parent = e.get("args", {}).get("parent")
        if parent is not None:
            children[parent].append((e["ts"], e["ts"] + e["dur"]))

    count = collections.Counter()
    total = collections.Counter()
    self_time = collections.Counter()
    for e in spans:
        start, end = e["ts"], e["ts"] + e["dur"]
        kids = children.get(e.get("args", {}).get("id"), [])
        count[e["name"]] += 1
        total[e["name"]] += e["dur"]
        self_time[e["name"]] += e["dur"] - covered(start, end, kids)

    print(f"{'span':40s} {'count':>8s} {'total_ms':>12s} {'self_ms':>12s} "
          f"{'self_ms/span':>13s}")
    for name, self_us in self_time.most_common():
        print(f"{name:40s} {count[name]:8d} {total[name] / 1e3:12.2f} "
              f"{self_us / 1e3:12.2f} {self_us / 1e3 / count[name]:13.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
