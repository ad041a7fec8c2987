#!/usr/bin/env python3
"""Compare a freshly generated benchmark JSON against a baseline.

Two input shapes:
  - dclue.run_report.v1 REPORT_*.json files from the figure benches. Two
    runs of the same sweep must be identical: the same number of points,
    and per point the same report keys with equal values and the same
    registry metrics with every field equal. Registry metrics named
    "shard.*" are skipped: they are wall-clock window-protocol diagnostics.
    The config echo is not compared. --tolerance and --keys do not apply.
  - flat BENCH_*.json key/value files from the micro benches. A compared
    metric fails if it regresses by more than the tolerance (default 10%).
    Direction is inferred from the key name:

      *_per_sec, *_per_sec_after, *speedup, *tpmc     higher is better
      *allocs_per_segment_after, *events_per_segment,
      *allocs_per_op_after                            lower is better

    Config keys (workload sizes, event counts) and the *_before baselines
    baked into the binary are ignored: they describe the measurement, not
    the result. Throughput keys are machine-dependent, so CI gates on the
    deterministic metrics (--keys); a full comparison is available for
    same-machine before/after runs.

Exit status: 0 when everything compared matches, 1 on any mismatch or
regression, 2 when there is nothing to compare.

Usage:
  bench_compare.py BASELINE.json CURRENT.json [--tolerance 0.10]
                   [--keys key1 key2 ...]
"""

import argparse
import json
import sys

REPORT_SCHEMA = "dclue.run_report.v1"
HIGHER_SUFFIXES = ("_per_sec", "_per_sec_after", "speedup", "tpmc")
LOWER_SUFFIXES = ("allocs_per_segment_after", "events_per_segment",
                  "allocs_per_op_after", "mismatches",
                  "allocs_per_event_after", "allocs_per_msg_after")


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


def direction(key):
    """Return +1 (higher is better), -1 (lower is better) or None (ignore)."""
    if key.endswith("_before"):
        return None
    for suffix in LOWER_SUFFIXES:
        if key.endswith(suffix):
            return -1
    for suffix in HIGHER_SUFFIXES:
        if key.endswith(suffix):
            return +1
    return None


def compare_flat(base, cur, tolerance, keys):
    """Directional regression check of two flat BENCH_*.json documents."""
    compared = 0
    failures = []
    for key, base_val in sorted(base.items()):
        if not isinstance(base_val, (int, float)) or isinstance(base_val, bool):
            continue
        sign = direction(key)
        if sign is None:
            continue
        if keys is not None and key not in keys:
            continue
        if key not in cur:
            failures.append(f"{key}: present in baseline, missing from current")
            continue
        cur_val = cur[key]
        compared += 1
        if sign > 0:
            floor = base_val * (1.0 - tolerance)
            ok = cur_val >= floor
            bound = f">= {floor:.4g}"
        else:
            ceiling = base_val * (1.0 + tolerance)
            ok = cur_val <= ceiling
            bound = f"<= {ceiling:.4g}"
        status = "ok  " if ok else "FAIL"
        print(f"  {status} {key}: baseline {base_val:.4g}, "
              f"current {cur_val:.4g} (required {bound})")
        if not ok:
            failures.append(f"{key}: {base_val:.4g} -> {cur_val:.4g}")

    if keys is not None:
        for k in keys:
            if k not in base:
                failures.append(f"{k}: requested key absent from baseline")

    if compared == 0 and not failures:
        print("error: no comparable metric keys found", file=sys.stderr)
        return 2
    if failures:
        print(f"\n{len(failures)} regression(s) beyond "
              f"{tolerance:.0%} tolerance:", file=sys.stderr)
        for f_ in failures:
            print(f"  {f_}", file=sys.stderr)
        return 1
    print(f"all {compared} compared metric(s) within "
          f"{tolerance:.0%} of baseline")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--tolerance", type=float, default=0.10,
                    help="allowed fractional regression for flat BENCH "
                         "files (default 0.10)")
    ap.add_argument("--keys", nargs="*", default=None,
                    help="restrict a flat BENCH comparison to these keys")
    args = ap.parse_args()

    with open(args.baseline) as f:
        base = json.load(f)
    with open(args.current) as f:
        cur = json.load(f)

    if is_report(base) != is_report(cur):
        print("error: cannot compare a RunReport with a flat BENCH file",
              file=sys.stderr)
        return 2
    if not is_report(base):
        return compare_flat(base, cur, args.tolerance, args.keys)

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
