#!/usr/bin/env python3
"""Tests for bench_compare.py and check_report.py on synthetic RunReports.

Standard library only. Run from anywhere:
  python3 scripts/test_report_tools.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPTS = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, SCRIPTS)

from check_report import REPORT_FIELDS  # noqa: E402


def make_report():
    """A valid two-point TPC-C RunReport over tcp, one of them sharded."""
    points = []
    for i, shards in enumerate((0, 4)):
        report = {field: 0 for field in REPORT_FIELDS}
        report.update(nodes=4, affinity=1.0, measure_seconds=2.0,
                      tpmc=1000.0 + i, txns=50.0 + i, fabric_drops=3,
                      shard_count=shards, transport=0)
        config = {"transport": "tcp", "workload": "tpcc", "nodes": 4,
                  "affinity": 1.0, "measure": 2.0, "shards": shards}
        registry = [
            {"name": "node0.txn.committed", "kind": "counter",
             "value": 50 + i},
            {"name": "node0.txn.t_total_s", "kind": "tally", "value": 0.5,
             "count": 50, "sum": 25.0, "mean": 0.5, "min": 0.1,
             "max": 0.9, "stddev": 0.2},
        ]
        if shards > 1:
            registry.append({"name": "shard.0.blocked_seconds",
                             "kind": "gauge", "value": 0.25})
        points.append({"axis_value": float(i), "config": config,
                       "report": report, "registry": registry})
    return {"schema": "dclue.run_report.v1", "bench": "synthetic",
            "title": "synthetic", "sweep_axis": "i", "points": points}


class ReportToolTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, doc):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as f:
            json.dump(doc, f)
        return path

    def run_script(self, script, *paths):
        return subprocess.run(
            [sys.executable, os.path.join(SCRIPTS, script), *paths],
            capture_output=True, text=True).returncode

    def compare(self, changed):
        return self.run_script("bench_compare.py",
                               self.write("base.json", make_report()),
                               self.write("cur.json", changed))

    def check(self, doc):
        return self.run_script("check_report.py", self.write("r.json", doc))


class BenchCompareReports(ReportToolTest):
    def test_identical_reports_match(self):
        self.assertEqual(self.compare(make_report()), 0)

    def test_shard_gauges_are_not_compared(self):
        doc = make_report()
        doc["points"][1]["registry"][2]["value"] = 9.75
        self.assertEqual(self.compare(doc), 0)

    def test_changed_registry_value_fails(self):
        doc = make_report()
        doc["points"][0]["registry"][1]["max"] = 1.1
        self.assertEqual(self.compare(doc), 1)

    def test_changed_report_field_fails(self):
        doc = make_report()
        doc["points"][1]["report"]["fabric_drops"] = 4
        self.assertEqual(self.compare(doc), 1)

    def test_higher_tpmc_fails(self):
        doc = make_report()
        doc["points"][0]["report"]["tpmc"] += 1.0
        self.assertEqual(self.compare(doc), 1)

    def test_missing_point_fails(self):
        doc = make_report()
        del doc["points"][1]
        self.assertEqual(self.compare(doc), 1)


class CheckReport(ReportToolTest):
    def test_valid_report_passes(self):
        self.assertEqual(self.check(make_report()), 0)

    def test_transport_mismatch_fails(self):
        doc = make_report()
        doc["points"][0]["config"]["transport"] = "rdma"
        self.assertEqual(self.check(doc), 1)

    def test_unknown_report_key_fails(self):
        doc = make_report()
        doc["points"][0]["report"]["tpmc_bonus"] = 1.0
        self.assertEqual(self.check(doc), 1)

    def test_shard_count_without_shards_fails(self):
        doc = make_report()
        doc["points"][1]["config"]["shards"] = 0
        self.assertEqual(self.check(doc), 1)

    def test_nodes_mismatch_fails(self):
        doc = make_report()
        doc["points"][0]["report"]["nodes"] = 8
        self.assertEqual(self.check(doc), 1)


if __name__ == "__main__":
    unittest.main()
