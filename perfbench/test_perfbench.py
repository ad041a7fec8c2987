#!/usr/bin/env python3
"""The benchmark's own test, on shortened windows (about three minutes).

  python3 perfbench/test_perfbench.py

- Two runs of each workload and seed give identical simulated statistics
  (fingerprint, sim_* metrics, sim.events and every simulated count).
- The 4-shard tpcc-scale24 point (serial windows) matches its twin with
  the shards stepped on parallel worker threads.
- One command per pass prints every end-to-end metric (--trace 0) and every
  per-layer metric (--trace 1) for all three workloads, by name with unit,
  with 0 failed points, and the module host_s sum to trace.run_s.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run as bench  # noqa: E402

SHORT = ["--warmup", "1", "--measure", "2"]
SEED = 3

# Per-layer values that are simulated, so they must repeat exactly.
SIMULATED = ["sim_commits_per_s", "sim_txn_ms", "txns", "sim.events",
             "cpu.instructions", "cpu.stall_cycles", "cpu.context_switches",
             "net.tcp_segments", "net.tcp_retransmits", "net.router_forwarded",
             "net.fabric_drops", "cluster.ipc_control", "cluster.ipc_data",
             "cluster.remote_fetches", "cluster.ipc_ctrl_delay_ms",
             "db.cache_hit_ratio", "db.lock_acquisitions", "db.lock_waits",
             "db.probe_len", "storage.disk_reads", "storage.log_ops",
             "proto.iscsi_reads", "workload.committed", "workload.aborted",
             "workload.sojourn_p50_ms", "workload.sojourn_p99_ms"]


def point(binary, workload, *extra):
    out = subprocess.run([binary, "--workload", workload, "--seed", str(SEED),
                          "--mode", "point", *SHORT, *extra],
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def run_all(trace):
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                          "--workload", "all", "--seed", str(SEED),
                          "--seconds", "1", "--trace", str(trace), *SHORT],
                         capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    return lines, json.loads(lines[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = bench.build()

    def test_repeated_runs_are_identical(self):
        for w in bench.WORKLOADS:
            with self.subTest(workload=w):
                a, b = point(self.binary, w), point(self.binary, w)
                self.assertGreater(a["txns"], 0)
                self.assertEqual(a["fingerprint"], b["fingerprint"])
                for name in SIMULATED:
                    self.assertEqual(a[name], b[name], name)

    def test_sharded_point_matches_parallel_stepping(self):
        serial = point(self.binary, "tpcc-scale24")
        parallel = point(self.binary, "tpcc-scale24", "--parallel")
        self.assertEqual(serial["shard_count"], 4)
        self.assertGreater(serial["shard.envelopes"], 0)
        self.assertEqual(parallel["fingerprint"], serial["fingerprint"])

    def check_pass(self, trace, table):
        lines, result = run_all(trace)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        for w in bench.WORKLOADS:
            self.assertTrue(any(line.startswith(f"{w}: points_failed=0 ")
                                for line in lines))
            for name, unit in table:
                metric = result["metrics"][f"{w}.{name}"]
                self.assertEqual(metric["unit"], unit)
                printed = [line for line in lines
                           if line.startswith(f"{w}: {name} = ")]
                self.assertEqual(len(printed), 1, name)
                self.assertIn(f" {unit}", printed[0])
        return result["metrics"]

    def test_end_to_end_pass_prints_every_metric(self):
        metrics = self.check_pass(0, bench.END_TO_END)
        for w in bench.WORKLOADS:
            self.assertGreater(metrics[f"{w}.sim_commits_per_s"]["value"], 0)

    def test_traced_pass_prints_every_layer_metric(self):
        metrics = self.check_pass(1, bench.PER_LAYER)
        for w in bench.WORKLOADS:
            host = sum(metrics[f"{w}.{m}.host_s"]["value"] for m in bench.MODULES)
            run_s = metrics[f"{w}.trace.run_s"]["value"]
            self.assertAlmostEqual(host, run_s, delta=1e-6 * run_s)
            self.assertGreater(metrics[f"{w}.trace.samples"]["value"], 0)
        self.assertGreater(metrics["tpcc-scale24.shard.windows"]["value"], 0)
        self.assertGreater(metrics["tpcc-scale24.shard.parallel_speedup"]["value"], 0)
        self.assertGreater(metrics["ycsb-keyed16.db.build_ycsb_s"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
