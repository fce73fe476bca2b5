#!/usr/bin/env python3
"""Validate a Skalla Chrome trace-event JSON dump.

Used by scripts/serve_smoke.sh after a multi-process
`skalla-coord --trace-out=` run to check the merged cross-process
timeline (docs/OBSERVABILITY.md):

  - the file is a valid Chrome trace-event JSON array, every complete
    ("X") event carrying name/cat/ts/dur/pid/tid;
  - complete events span at least --min-pids distinct process lanes
    (coordinator pid 1 + one lane per imported site process), each with
    a process_name metadata record;
  - no unparented remote spans: every X event outside pid 1 has a
    parent reference that resolves to an exported span id, i.e. the
    site subtrees really are grafted under coordinator spans;
  - at least one `site.round:` span exists and parents under an
    `rpc.round` span.

Stdlib only. Exit 0 on success, 1 with a message on any violation.
"""

import argparse
import json
import sys


def fail(msg):
    print(f"check_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="Chrome trace-event JSON file")
    parser.add_argument("--min-pids", type=int, default=2,
                        help="minimum distinct pids among X events")
    args = parser.parse_args()

    try:
        with open(args.trace) as f:
            events = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot load {args.trace}: {e}")
    if not isinstance(events, list) or not events:
        fail("trace is not a non-empty JSON array")

    spans = [e for e in events if e.get("ph") == "X"]
    if not spans:
        fail("no complete (ph=X) events")
    for e in spans:
        for key in ("name", "cat", "ts", "dur", "pid", "tid"):
            if key not in e:
                fail(f"X event missing '{key}': {e}")

    pids = {e["pid"] for e in spans}
    if len(pids) < args.min_pids:
        fail(f"only {len(pids)} process lane(s) {sorted(pids)}, "
             f"need >= {args.min_pids}")

    named = {e["pid"] for e in events
             if e.get("ph") == "M" and e.get("name") == "process_name"}
    unnamed = pids - named
    if unnamed:
        fail(f"pids without a process_name record: {sorted(unnamed)}")

    ids = {e["args"]["id"] for e in spans if "id" in e.get("args", {})}
    rpc_round_ids = {e["args"]["id"] for e in spans
                     if e["name"] == "rpc.round" and "id" in e.get("args", {})}

    site_rounds = 0
    for e in spans:
        attrs = e.get("args", {})
        if e["pid"] != 1:
            parent = attrs.get("parent")
            if parent is None:
                fail(f"remote span without a parent: {e}")
            if parent not in ids:
                fail(f"remote span parent {parent} resolves to no exported "
                     f"id: {e}")
        if e["name"].startswith("site.round:"):
            site_rounds += 1
            if attrs.get("parent") not in rpc_round_ids:
                fail(f"site round not parented under an rpc.round span: {e}")
    if site_rounds == 0:
        fail("no site.round:* spans — site subtrees were not imported")

    print(f"check_trace: OK: {len(spans)} spans across {len(pids)} "
          f"process lanes, {site_rounds} site rounds grafted")


if __name__ == "__main__":
    main()
