#!/usr/bin/env python3
"""Guard the async scheduler's contention headline.

Reads a fresh exp_contention run (--json output) and fails (exit 1) if the
event-loop backend's throughput cliffs as executors grow.

Raw tuples/s is not comparable across machines, so the gated quantity is a
same-run ratio: throughput at 256 executors divided by throughput at 64
executors, which must stay >= CLIFF_FLOOR (a logical worker costs no OS
thread, so adding executors must not collapse throughput).

Usage: check_contention_regression.py CURRENT.json [--cliff-floor 0.6]
"""

import argparse
import json
import sys


def load_rows(path):
    with open(path) as f:
        data = json.load(f)
    return {row["executors"]: row for row in data["rows"] if row["backend"] == "async"}


def retention(rows):
    at64 = rows.get(64)
    at256 = rows.get(256)
    if at64 is None or at256 is None:
        raise KeyError("missing async rows at 64/256 executors")
    if at64["tuples_per_s"] <= 0:
        raise ValueError("async tuples_per_s is zero at 64 executors")
    return at256["tuples_per_s"] / at64["tuples_per_s"]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", help="fresh exp_contention --json output")
    parser.add_argument("--cliff-floor", type=float, default=0.6,
                        help="min async 256-vs-64 throughput retention")
    args = parser.parse_args()

    cur_ret = retention(load_rows(args.current))
    ok = cur_ret >= args.cliff_floor
    print(f"async retention 64 -> 256 executors: {cur_ret:.2f} "
          f"(floor {args.cliff_floor:.2f}) {'OK' if ok else 'FAIL'}")
    if not ok:
        print("\ncontention gate failed", file=sys.stderr)
        return 1
    print("\ncontention headline within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
