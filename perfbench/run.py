#!/usr/bin/env python3
"""DCLUE-R end-to-end benchmark: host time per sweep point.

Run from the repository root:

  python3 perfbench/run.py --workload tpcc-scale24 --seed 7 --seconds 35 --trace 0
  python3 perfbench/run.py --workload all --seed 7 --seconds 35 --trace 1

The first call builds perfbench_point (perfbench/CMakeLists.txt) from the
simulator's sources into $CARGO_TARGET_DIR/perfbench (default .bench_build).
Each sweep point then runs in its own process, so peak RSS is per point.

--trace 0 repeats the workload's point (same seed) until --seconds is used
up, at least MIN_POINTS times, and prints the medians of the end-to-end
metrics. --trace 1 runs the traced pass instead: one prewarm/database
phase process, one untraced point (the reference for the tracing
overhead), on a sharded workload one point with the shards on parallel
worker threads, and sampled points for the rest of the time, and prints
the per-layer metrics. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.

A point fails if it throws, commits nothing, reports client connection
failures or admission drops, or its simulated statistics (fingerprint)
differ from the first point of the same seed in this run.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ["tpcc-scale24", "tpcc-fusion8", "ycsb-keyed16"]
MIN_POINTS = 3
POINT_TIMEOUT_S = 170

# name, unit. Every sim_* metric is simulated and deterministic; the rest
# is host time or memory.
END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("run_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_commits_per_s", "txn/scaled-s"),
    ("sim_txn_ms", "ms"),
]

MODULES = ["sim", "cpu", "net", "proto", "cluster", "db", "storage",
           "workload", "core", "other"]

# name, unit. Counts are simulated (measure window, summed over nodes);
# *_s / *_ms spans and *.host_s are host time.
PER_LAYER = [
    ("db.populate_s", "s"),
    ("db.build_ycsb_s", "s"),
    ("db.total_data_pages_ms", "ms"),
    ("core.build_s", "s"),
    ("core.prewarm_s", "s"),
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("shard.windows", "count"),
    ("shard.blocked_s", "s"),
    ("shard.envelopes", "count"),
    ("shard.parallel_run_s", "s"),
    ("shard.parallel_speedup", "x"),
    ("cpu.instructions", "count"),
    ("cpu.stall_cycles", "cycles"),
    ("cpu.context_switches", "count"),
    ("net.tcp_segments", "count"),
    ("net.tcp_retransmits", "count"),
    ("net.router_forwarded", "count"),
    ("net.fabric_drops", "count"),
    ("cluster.ipc_control", "count"),
    ("cluster.ipc_data", "count"),
    ("cluster.remote_fetches", "count"),
    ("cluster.ipc_ctrl_delay_ms", "ms"),
    ("db.cache_hit_ratio", "ratio"),
    ("db.lock_acquisitions", "count"),
    ("db.lock_waits", "count"),
    ("db.probe_len", "probes"),
    ("storage.disk_reads", "count"),
    ("storage.log_ops", "count"),
    ("proto.iscsi_reads", "count"),
    ("workload.committed", "count"),
    ("workload.aborted", "count"),
    ("workload.sojourn_p50_ms", "ms"),
    ("workload.sojourn_p99_ms", "ms"),
] + [(m + ".host_s", "s") for m in MODULES] + [
    ("trace.wall_s", "s"),
    ("trace.run_s", "s"),
    ("trace.untraced_run_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.run_cpu_s", "s"),
    ("trace.samples", "count"),
    ("trace.sample_period_ms", "ms"),
]

# Per-layer metrics the `phases` process times, and those derived here;
# every other per-layer metric is the median over the sampled points.
FROM_PHASES = ["db.populate_s", "db.build_ycsb_s", "db.total_data_pages_ms",
               "core.prewarm_s"]
DERIVED = ["core.build_s", "sim.ns_per_event", "shard.blocked_s",
           "shard.parallel_run_s", "shard.parallel_speedup", "trace.wall_s",
           "trace.run_s", "trace.untraced_run_s", "trace.overhead_pct",
           "trace.run_cpu_s"] + [m + ".host_s" for m in MODULES]
FROM_SAMPLED = [name for name, _ in PER_LAYER
                if name not in FROM_PHASES and name not in DERIVED]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ----------------------------------------------------------------- build --

def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configure once, then let the build tool bring the driver up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("simulator sources (src/) not found next to perfbench/")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return os.path.join(out, "perfbench_point")


def cmake_cache(key):
    try:
        with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def print_environment(workload, seed, trace):
    sanitizers = [s for s in ("ASAN", "UBSAN", "TSAN")
                  if cmake_cache("DCLUE_" + s) == "ON"]
    tracing = cmake_cache("DCLUE_TRACING") or "ON"
    print(f"# machine: nproc={len(os.sched_getaffinity(0))} "
          f"cpu_count={os.cpu_count()}")
    print(f"# build: {cmake_cache('CMAKE_BUILD_TYPE') or 'unknown'}; "
          f"DCLUE_TRACING={tracing} (compiled in, off at run time); "
          f"sanitizers={','.join(sanitizers) or 'none'}")
    print(f"# source: git {git_rev()}; sha256(src,perfbench)={source_digest()}")
    print(f"# run: workload={workload} seed={seed} trace={trace}")


# ---------------------------------------------------------------- points --

class Ledger:
    """Points attempted and failed, and the seed's reference fingerprint."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.fingerprint = None
        self.mismatches = 0

    def run(self, binary, workload, seed, mode, extra):
        self.attempted += 1
        cmd = [binary, "--workload", workload, "--seed", str(seed),
               "--mode", mode] + extra
        started = time.monotonic()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=POINT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return self.fail(mode, "timed out"), time.monotonic() - started
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1]) if lines else {}
        except json.JSONDecodeError:
            result = {}
        if proc.returncode != 0 or "error" in result or not result:
            reason = result.get("error") or proc.stderr.strip()[-300:] or \
                f"exit code {proc.returncode}"
            return self.fail(mode, reason), time.monotonic() - started
        if mode != "phases" and not self.check(result):
            return None, time.monotonic() - started
        return result, time.monotonic() - started

    def check(self, r):
        reasons = []
        if r["txns"] <= 0:
            reasons.append("0 commits in the measure window")
        if r["client_conn_failures"] > 0:
            reasons.append(f"{r['client_conn_failures']:.0f} client connection failures")
        if r["admission_drops"] > 0:
            reasons.append(f"{r['admission_drops']:.0f} admission drops")
        if self.fingerprint is None:
            self.fingerprint = r["fingerprint"]
        elif r["fingerprint"] != self.fingerprint:
            self.mismatches += 1
            reasons.append(f"fingerprint {r['fingerprint']} != {self.fingerprint}")
        if reasons:
            self.fail("point", "; ".join(reasons))
            return False
        return True

    def fail(self, mode, reason):
        self.failed += 1
        log(f"point failed ({mode}): {reason}")
        return None


def run_points(binary, ledger, workload, seed, mode, extra, seconds, minimum):
    """Repeat a point until `seconds` is used up (at least `minimum` times).
    A new point starts only if a typical point still fits in the budget."""
    results, durations = [], []
    start = time.monotonic()
    while len(durations) < minimum or \
            time.monotonic() - start + statistics.median(durations) <= seconds:
        result, took = ledger.run(binary, workload, seed, mode, extra)
        durations.append(took)
        if result is not None:
            results.append(result)
    return results


def median_of(results, key):
    return statistics.median(r[key] for r in results)


def untraced(binary, ledger, workload, seed, extra, seconds):
    points = run_points(binary, ledger, workload, seed, "point", extra, seconds,
                        MIN_POINTS)
    if not points:
        return {}, {}
    metrics = {name: median_of(points, name) for name, _ in END_TO_END}
    notes = {name: f"(median of {len(points)}; min {fmt(min(r[name] for r in points))}"
                   f", max {fmt(max(r[name] for r in points))})"
             for name, _ in END_TO_END}
    return metrics, notes


def traced(binary, ledger, workload, seed, extra, seconds):
    start = time.monotonic()
    phases, _ = ledger.run(binary, workload, seed, "phases", extra)
    reference, _ = ledger.run(binary, workload, seed, "point", extra)
    parallel = None
    if reference is not None and reference["shard_count"] > 1:
        parallel, _ = ledger.run(binary, workload, seed, "point",
                                 extra + ["--parallel"])
    remaining = seconds - (time.monotonic() - start)
    sampled = run_points(binary, ledger, workload, seed, "sampled", extra,
                         remaining, 1)
    if phases is None or reference is None or not sampled or \
            (reference["shard_count"] > 1 and parallel is None):
        return {}, {}
    m = {name: median_of(sampled, name) for name in FROM_SAMPLED}
    m.update({name: phases[name] for name in FROM_PHASES})
    setup = median_of(sampled, "setup_s")
    run = median_of(sampled, "run_s")
    # Constructor time not spent in the database calls timed by `phases`.
    m["core.build_s"] = setup - (phases["db.populate_s"] + phases["db.build_ycsb_s"]
                                 + phases["db.total_data_pages_ms"] / 1e3)
    m["sim.ns_per_event"] = run / max(m["sim.events"], 1) * 1e9
    # Sharded workloads step their shards on one thread; one point on worker
    # threads gives the parallel run() time and the time its workers spent
    # blocked on neighbours (all 0 when unsharded).
    m["shard.blocked_s"] = parallel["shard.blocked_s"] if parallel else 0.0
    m["shard.parallel_run_s"] = parallel["run_s"] if parallel else 0.0
    m["shard.parallel_speedup"] = \
        reference["run_s"] / parallel["run_s"] if parallel else 0.0
    m["trace.wall_s"] = median_of(sampled, "wall_s")
    m["trace.run_s"] = run
    m["trace.untraced_run_s"] = reference["run_s"]
    m["trace.overhead_pct"] = (run / reference["run_s"] - 1.0) * 100.0
    m["trace.run_cpu_s"] = median_of(sampled, "run_cpu_s")
    # Module host_s: run_s apportioned by each module's share of the CPU-time
    # samples pooled over the sampled points, so the modules sum to run_s.
    total = sum(r["trace.samples"] for r in sampled)
    for mod in MODULES:
        share = sum(r["samples." + mod] for r in sampled) / max(total, 1)
        m[mod + ".host_s"] = share * run
    host_sum = sum(m[mod + ".host_s"] for mod in MODULES)
    lines = [f"sum of module host_s = {fmt(host_sum)} s vs trace.run_s = "
             f"{fmt(run)} s; overhead vs untraced run_s "
             f"{m['trace.overhead_pct']:+.2f} %; {len(sampled)} sampled point(s)"]
    lines += [f"span {s['name']} {s['start']:.4f}..{s['end']:.4f} s"
              for s in phases["spans"]]
    return m, {"_lines": lines}


# ---------------------------------------------------------------- report --

def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def run_workload(binary, workload, seed, seconds, trace, extra):
    ledger = Ledger()
    print_environment(workload, seed, int(trace))
    if trace:
        metrics, notes = traced(binary, ledger, workload, seed, extra, seconds)
        table = PER_LAYER
    else:
        metrics, notes = untraced(binary, ledger, workload, seed, extra, seconds)
        table = END_TO_END
    print(f"{workload}: points_failed={ledger.failed} points_run={ledger.attempted}")
    matched = ledger.fingerprint is not None and ledger.mismatches == 0
    print(f"{workload}: fingerprint {ledger.fingerprint} "
          f"{'matched by every point' if matched else 'NOT matched by every point'}")
    out = {}
    for name, unit in table:
        if name not in metrics:
            continue
        print(f"{workload}: {name} = {fmt(metrics[name])} {unit} "
              f"{notes.get(name, '')}".rstrip())
        out[name] = {"value": metrics[name], "unit": unit}
    for line in notes.get("_lines", []):
        print(f"{workload}: {line}")
    complete = len(out) == len(table)
    correct = complete and ledger.failed == 0 and matched
    return correct, ledger.attempted, ledger.failed, out


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    # Test knobs (perfbench/test_perfbench.py): shortened windows.
    ap.add_argument("--warmup", type=float)
    ap.add_argument("--measure", type=float)
    args = ap.parse_args()

    extra = []
    for flag in ("warmup", "measure"):
        if getattr(args, flag) is not None:
            extra += ["--" + flag, str(getattr(args, flag))]

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as err:
        log(f"build failed: {err}")
        return 1

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for w in workloads:
        ok, a, f, m = run_workload(binary, w, args.seed, args.seconds,
                                   bool(args.trace), extra)
        correct, attempted, failed = correct and ok, attempted + a, failed + f
        prefix = "" if len(workloads) == 1 else w + "."
        metrics.update({prefix + k: v for k, v in m.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
