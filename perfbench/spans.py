#!/usr/bin/env python3
"""Fold a Chrome trace into self time per span name.

    python3 perfbench/spans.py TRACE.json [TRACE.json ...]

A span's self time is its duration minus the time its children on the same
thread cover; a child is a span that starts inside the innermost span still
open on its thread. Each thread (Chrome "tid") folds on its own, so pool
tasks, queue waits and simt/block_slice spans on worker threads never
subtract from the main-thread stage that waited for them. The table is per
step: times are divided by the number of `step` spans in the trace.
"""

import argparse
import json
import sys
from collections import defaultdict


def load(path):
    """The complete ("X") events of a Chrome trace file."""
    with open(path) as f:
        doc = json.load(f)
    events = doc["traceEvents"] if isinstance(doc, dict) else doc
    return [e for e in events if e.get("ph") == "X"]


def fold(events):
    """{name: {"count", "total_us", "self_us"}} over complete events."""
    table = defaultdict(lambda: {"count": 0, "total_us": 0.0, "self_us": 0.0})
    threads = defaultdict(list)
    for e in events:
        threads[e.get("tid", 0)].append(e)
    for evs in threads.values():
        evs.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # open spans: [end_us, name, dur_us, child_us]
        for e in evs:
            start, dur = float(e["ts"]), float(e["dur"])
            while stack and stack[-1][0] <= start:
                _close(stack.pop(), table)
            if stack:
                stack[-1][3] += dur
            row = table[e["name"]]
            row["count"] += 1
            row["total_us"] += dur
            stack.append([start + dur, e["name"], dur, 0.0])
        while stack:
            _close(stack.pop(), table)
    return dict(table)


def _close(entry, table):
    _, name, dur, child = entry
    table[name]["self_us"] += max(dur - child, 0.0)


def steps(table):
    """Number of simulation steps in a folded trace."""
    return table.get("step", {}).get("count", 0)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("traces", nargs="+")
    args = ap.parse_args(argv)
    for path in args.traces:
        table = fold(load(path))
        n = steps(table)
        step_us = table.get("step", {}).get("total_us", 0.0)
        print(f"{path}: {n} steps")
        print(f"  {'span':28s} {'count':>8s} {'total ms':>10s} "
              f"{'self ms':>10s} {'self ms/step':>13s} {'of step':>8s}")
        for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_us"]):
            per_step = row["self_us"] / n / 1e3 if n else 0.0
            share = f"{row['self_us'] / step_us:8.1%}" if step_us else "       -"
            print(f"  {name:28s} {row['count']:8d} {row['total_us'] / 1e3:10.3f} "
                  f"{row['self_us'] / 1e3:10.3f} {per_step:13.4f} {share}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
