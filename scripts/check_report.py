#!/usr/bin/env python3
"""Validate a RunReport JSON file against the dclue.run_report.v1 schema.

Every figure bench emits one of these (--report, on by default); CI runs this
checker against a short sweep so a schema drift — a renamed field, a missing
registry section, a NaN that json.load would still accept — fails the build
instead of silently breaking downstream tooling.

Checks:
  - top level: schema tag, bench/title/sweep_axis strings, non-empty points
  - per point: numeric axis_value, config object, report object with
    exactly the canonical scalar fields, registry array
  - per point, the report agrees with its config echo: nodes, affinity,
    measure_seconds (= measure), transport (0 = tcp, 1 = rdma), and
    shard_count (0 exactly when shards is 0, never more than shards)
  - per registry metric: name, known kind, finite numeric value; distribution
    kinds (tally, histogram) carry the stats block; histograms carry quantiles
  - all finite: no NaN/Inf anywhere in report or registry values

Usage:
  check_report.py REPORT.json [more.json ...] [--min-points N]
  check_report.py REPORT.json --expect-metric node0.txn.committed
"""

import argparse
import json
import math
import sys

# The scalar fields of every point's report block, no more and no fewer
# (core/report.hpp's visit_fields order; a rename there must be reflected
# here and in readers).
REPORT_FIELDS = [
    "nodes", "affinity", "measure_seconds", "tpmc", "txn_rate", "txns",
    "ipc_control_per_txn", "ipc_data_per_txn", "control_msg_delay_ms",
    "lock_waits_per_txn", "lock_wait_time_ms", "lock_failures_per_txn",
    "buffer_hit_ratio", "disk_reads_per_txn", "remote_fetch_per_txn",
    "avg_active_threads", "avg_context_switch_cycles", "avg_cpi",
    "cpu_utilization", "inter_lata_mbps", "fabric_drops", "abort_rate",
    "txn_ms", "txn_phase1_ms", "txn_lock_ms", "txn_log_ms", "txn_apply_ms",
    "ftp_carried_mbps", "business_txns", "admission_drops",
    "client_conn_failures", "shard_count", "transport",
    "ycsb_ops", "ycsb_op_rate", "sojourn_p50_ms", "sojourn_p99_ms",
]

METRIC_KINDS = {
    "counter", "gauge", "accum", "tally", "time_weighted", "histogram",
}

DISTRIBUTION_KINDS = {"tally", "histogram"}
STATS_FIELDS = ["count", "sum", "mean", "min", "max", "stddev"]
QUANTILE_FIELDS = ["p50", "p95", "p99"]

# RunReport.transport for each config transport spec (net::TransportKind).
TRANSPORT_CODES = {"tcp": 0, "rdma": 1}


class SchemaError(Exception):
    pass


def require(cond, msg):
    if not cond:
        raise SchemaError(msg)


def check_number(value, where):
    require(isinstance(value, (int, float)) and not isinstance(value, bool),
            f"{where}: expected a number, got {type(value).__name__}")
    require(math.isfinite(value), f"{where}: non-finite value {value!r}")


def check_metric(metric, where):
    require(isinstance(metric, dict), f"{where}: metric is not an object")
    require(isinstance(metric.get("name"), str) and metric["name"],
            f"{where}: missing metric name")
    name = metric["name"]
    kind = metric.get("kind")
    require(kind in METRIC_KINDS,
            f"{where}/{name}: unknown metric kind {kind!r}")
    check_number(metric.get("value"), f"{where}/{name}/value")
    if kind in DISTRIBUTION_KINDS:
        for field in STATS_FIELDS:
            require(field in metric, f"{where}/{name}: missing stats field "
                    f"{field!r} for kind {kind!r}")
            check_number(metric[field], f"{where}/{name}/{field}")
    if kind == "histogram":
        for field in QUANTILE_FIELDS:
            require(field in metric,
                    f"{where}/{name}: histogram missing {field!r}")
            check_number(metric[field], f"{where}/{name}/{field}")


def check_config_echo(config, report, where):
    """The report's config-derived fields must match the config it ran."""
    for report_key, config_key in (("nodes", "nodes"),
                                   ("affinity", "affinity"),
                                   ("measure_seconds", "measure")):
        require(report[report_key] == config.get(config_key),
                f"{where}: report {report_key} {report[report_key]!r} != "
                f"config {config_key} {config.get(config_key)!r}")
    transport = config.get("transport")
    require(transport in TRANSPORT_CODES,
            f"{where}: unknown config transport {transport!r}")
    require(report["transport"] == TRANSPORT_CODES[transport],
            f"{where}: report transport {report['transport']!r} does not "
            f"match config transport {transport!r}")
    shards, shard_count = config.get("shards"), report["shard_count"]
    check_number(shards, f"{where}/config/shards")
    require((shard_count == 0) == (shards == 0) and shard_count <= shards,
            f"{where}: report shard_count {shard_count!r} does not fit "
            f"config shards {shards!r}")


def check_point(point, idx):
    where = f"points[{idx}]"
    require(isinstance(point, dict), f"{where}: not an object")
    check_number(point.get("axis_value"), f"{where}/axis_value")
    config = point.get("config")
    require(isinstance(config, dict), f"{where}: missing config")
    report = point.get("report")
    require(isinstance(report, dict), f"{where}: missing report")
    for field in REPORT_FIELDS:
        require(field in report, f"{where}/report: missing field {field!r}")
        check_number(report[field], f"{where}/report/{field}")
    for field in report:
        require(field in REPORT_FIELDS,
                f"{where}/report: unknown field {field!r}")
    check_config_echo(config, report, where)
    registry = point.get("registry")
    require(isinstance(registry, list), f"{where}: missing registry array")
    names = set()
    for m, metric in enumerate(registry):
        check_metric(metric, f"{where}/registry[{m}]")
        name = metric["name"]
        require(name not in names, f"{where}/registry: duplicate metric "
                f"name {name!r}")
        names.add(name)
    return names


def check_file(path, min_points, expect_metrics):
    with open(path) as f:
        doc = json.load(f)
    require(isinstance(doc, dict), "top level is not an object")
    require(doc.get("schema") == "dclue.run_report.v1",
            f"bad schema tag {doc.get('schema')!r}")
    for key in ("bench", "title", "sweep_axis"):
        require(isinstance(doc.get(key), str) and doc[key],
                f"missing or empty {key!r}")
    points = doc.get("points")
    require(isinstance(points, list), "missing points array")
    require(len(points) >= min_points,
            f"expected >= {min_points} points, found {len(points)}")
    for idx, point in enumerate(points):
        names = check_point(point, idx)
        for wanted in expect_metrics:
            require(wanted in names,
                    f"points[{idx}]/registry: expected metric {wanted!r} absent")
    return len(points)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("reports", nargs="+", help="RunReport JSON file(s)")
    ap.add_argument("--min-points", type=int, default=1,
                    help="minimum sweep points per file (default 1)")
    ap.add_argument("--expect-metric", action="append", default=[],
                    metavar="NAME",
                    help="registry metric that must exist in every point "
                         "(repeatable)")
    args = ap.parse_args()

    failed = False
    for path in args.reports:
        try:
            n = check_file(path, args.min_points, args.expect_metric)
        except (SchemaError, json.JSONDecodeError, OSError) as err:
            print(f"FAIL {path}: {err}", file=sys.stderr)
            failed = True
        else:
            print(f"ok   {path}: {n} point(s), schema dclue.run_report.v1")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
