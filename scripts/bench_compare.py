#!/usr/bin/env python3
"""Check that two dclue.run_report.v1 REPORT_*.json files are identical.

Two runs of the same sweep must have the same number of points, and per
point the same report keys with equal values and the same registry metrics
with every field equal. Registry metrics named "shard.*" are skipped: they
are wall-clock window-protocol diagnostics. The config echo is not compared.

Exit status: 0 when the reports are identical, 1 on any difference, 2 when
an input is not a RunReport or there is nothing to compare.

Usage:
  bench_compare.py BASELINE.json CURRENT.json
"""

import argparse
import json
import sys

REPORT_SCHEMA = "dclue.run_report.v1"


def is_report(doc):
    return isinstance(doc, dict) and doc.get("schema") == REPORT_SCHEMA


def registry_by_name(point):
    """Registry metrics of one point by name, without the shard.* gauges."""
    return {m["name"]: m for m in point.get("registry", [])
            if not m["name"].startswith("shard.")}


def diff_fields(where, base, cur, mismatches):
    """Append a line per key missing on either side or with unequal values;
    return the number of values compared."""
    for key in sorted(base.keys() - cur.keys()):
        mismatches.append(f"{where}.{key}: missing from current")
    for key in sorted(cur.keys() - base.keys()):
        mismatches.append(f"{where}.{key}: not in baseline")
    shared = sorted(base.keys() & cur.keys())
    for key in shared:
        if base[key] != cur[key]:
            mismatches.append(f"{where}.{key}: baseline {base[key]!r}, "
                              f"current {cur[key]!r}")
    return len(shared)


def compare_reports(base, cur):
    """Exact identity of two RunReports: returns the number of report values
    and registry metrics compared, and a line per difference."""
    base_points, cur_points = base.get("points", []), cur.get("points", [])
    mismatches = []
    if len(base_points) != len(cur_points):
        mismatches.append(f"points: baseline has {len(base_points)}, "
                          f"current has {len(cur_points)}")
    compared = 0
    for i, (bp, cp) in enumerate(zip(base_points, cur_points)):
        compared += diff_fields(f"p{i}.report", bp.get("report", {}),
                                cp.get("report", {}), mismatches)
        compared += diff_fields(f"p{i}.registry", registry_by_name(bp),
                                registry_by_name(cp), mismatches)
    return compared, mismatches


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("current")
    args = ap.parse_args()

    docs = []
    for path in (args.baseline, args.current):
        with open(path) as f:
            docs.append(json.load(f))
        if not is_report(docs[-1]):
            print(f"error: {path} is not a {REPORT_SCHEMA} file",
                  file=sys.stderr)
            return 2
    base, cur = docs

    compared, mismatches = compare_reports(base, cur)
    for line in mismatches:
        print(f"  DIFF {line}")
    if mismatches:
        print(f"\n{len(mismatches)} difference(s) between the reports",
              file=sys.stderr)
        return 1
    if compared == 0:
        print("error: no report values to compare", file=sys.stderr)
        return 2
    print(f"reports identical: {compared} value(s) compared")
    return 0


if __name__ == "__main__":
    sys.exit(main())
