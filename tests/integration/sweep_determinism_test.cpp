/// Serial vs parallel sweep determinism: a sweep point is a pure function of
/// its ClusterConfig, so running the same grid on one worker and on several
/// must produce bit-identical per-point metrics. This is the property that
/// lets REPRO_JOBS>1 reproduce the paper's figures exactly.

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "core/experiment.hpp"

namespace dclue::core {
namespace {

std::vector<ClusterConfig> small_grid() {
  std::vector<ClusterConfig> cfgs;
  for (int nodes : {1, 2, 3}) {
    for (double affinity : {1.0, 0.5}) {
      ClusterConfig cfg;
      cfg.nodes = nodes;
      cfg.affinity = affinity;
      cfg.warmup = 1.0;
      cfg.measure = 3.0;
      cfg.seed = 11;
      cfgs.push_back(cfg);
    }
  }
  return cfgs;
}

/// Registry metrics in snapshot order, without the "shard." window-protocol
/// gauges (they measure the schedule, not the simulation).
std::vector<const obs::MetricValue*> model_metrics(const RunReport& r) {
  std::vector<const obs::MetricValue*> out;
  for (const obs::MetricValue& m : r.registry.metrics) {
    if (m.name.rfind("shard.", 0) != 0) out.push_back(&m);
  }
  return out;
}

/// Every report scalar and every field of every registry metric outside
/// "shard." must be equal.
void expect_identical(const RunReport& a, const RunReport& b, std::size_t i) {
  visit_fields(
      [i](const char* name, const auto& x, const auto& y) {
        EXPECT_EQ(x, y) << "point " << i << " diverged in " << name;
      },
      a, b);
  const auto ma = model_metrics(a);
  const auto mb = model_metrics(b);
  ASSERT_EQ(ma.size(), mb.size()) << "point " << i << " registry size";
  for (std::size_t k = 0; k < ma.size(); ++k) {
    const obs::MetricValue& x = *ma[k];
    const obs::MetricValue& y = *mb[k];
    ASSERT_EQ(x.name, y.name) << "point " << i << " registry order";
    const auto fields = [](const obs::MetricValue& m) {
      return std::tuple(m.kind, m.value, m.count, m.sum, m.mean, m.min, m.max,
                        m.stddev, m.p50, m.p95, m.p99);
    };
    EXPECT_EQ(fields(x), fields(y))
        << "point " << i << " diverged in registry " << x.name;
  }
}

TEST(SweepDeterminism, ParallelMatchesSerialBitForBit) {
  const std::vector<ClusterConfig> cfgs = small_grid();
  const std::vector<RunReport> serial = run_experiments(cfgs, /*jobs=*/1);
  const std::vector<RunReport> parallel = run_experiments(cfgs, /*jobs=*/4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expect_identical(serial[i], parallel[i], i);
  }
}

TEST(SweepDeterminism, FaultedPointMatchesSerialBitForBit) {
  // A fault plan is part of the point's config: link flaps, loss, a crash
  // and disk spikes must replay identically on a sweep worker thread.
  std::vector<ClusterConfig> cfgs;
  for (std::uint64_t seed : {31, 32}) {
    ClusterConfig cfg;
    cfg.nodes = 2;
    cfg.affinity = 0.8;
    cfg.warehouses_override = 8;
    cfg.customers_per_district = 60;
    cfg.items = 200;
    cfg.terminals_per_node = 8;
    cfg.warmup = 1.0;
    cfg.measure = 6.0;
    cfg.seed = seed;
    cfg.fault_spec = "flaps=2,flap_down=0.2,drop=0.02,crashes=1,crash_down=1.5";
    cfgs.push_back(cfg);
  }
  const std::vector<RunReport> serial = run_experiments(cfgs, /*jobs=*/1);
  const std::vector<RunReport> parallel = run_experiments(cfgs, /*jobs=*/2);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expect_identical(serial[i], parallel[i], i);
  }
  // The two seeds actually produced different faulted runs.
  EXPECT_NE(serial[0].txns, serial[1].txns);
}

// --- sharded engine determinism --------------------------------------------
// A sharded run mints ordering keys per domain, so its results are identical
// for EVERY shard count and for parallel vs serial window stepping (they
// differ from legacy single-engine keys, which is why the baseline here is
// shards=N with shard_parallel=false, not shards=0).

ClusterConfig sharded_cfg(int shards, bool parallel) {
  ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.affinity = 1.0;  // required by shard mode
  cfg.warehouses_override = 9;
  cfg.customers_per_district = 60;
  cfg.items = 200;
  cfg.terminals_per_node = 8;
  cfg.warmup = 1.0;
  cfg.measure = 3.0;
  cfg.seed = 17;
  cfg.shards = shards;
  cfg.shard_parallel = parallel;
  return cfg;
}

/// Link flaps and loss, plus disk spikes with IO errors. Crash/restart is
/// rejected in shard mode; each link side and each node's disks draw from
/// their own RNG stream, so faulted sharded runs stay deterministic.
ClusterConfig faulted(ClusterConfig cfg) {
  cfg.fault_spec =
      "flaps=2,flap_down=0.2,drop=0.02,disk_spikes=2,disk_err=0.05";
  cfg.measure = 4.0;
  return cfg;
}

double disk_fault_events(const RunReport& r) {
  const auto* m = r.registry.find("fault.disk_events");
  return m == nullptr ? 0.0 : m->value;
}

TEST(SweepDeterminism, ShardedParallelMatchesSerialWindowsBitForBit) {
  const std::vector<ClusterConfig> serial_cfgs = {sharded_cfg(4, false)};
  const std::vector<ClusterConfig> parallel_cfgs = {sharded_cfg(4, true)};
  const std::vector<RunReport> serial = run_experiments(serial_cfgs, /*jobs=*/1);
  const std::vector<RunReport> parallel =
      run_experiments(parallel_cfgs, /*jobs=*/1);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expect_identical(serial[i], parallel[i], i);
  }
  EXPECT_GT(serial[0].txns, 0.0);
}

TEST(SweepDeterminism, ShardCountDoesNotChangeResults) {
  // One shard (every domain on one worker) vs many: same domain-keyed event
  // order, so bit-identical reports, with and without faults.
  const std::vector<RunReport> one = run_experiments(
      {sharded_cfg(1, true), faulted(sharded_cfg(1, true))}, /*jobs=*/1);
  const std::vector<RunReport> many = run_experiments(
      {sharded_cfg(6, true), faulted(sharded_cfg(6, true))}, /*jobs=*/1);
  ASSERT_EQ(one.size(), many.size());
  EXPECT_GT(disk_fault_events(one[1]), 0.0);
  for (std::size_t i = 0; i < one.size(); ++i) {
    RunReport a = one[i];
    RunReport b = many[i];
    // shard_count legitimately differs; everything observable must not.
    a.shard_count = b.shard_count = 0;
    expect_identical(a, b, i);
  }
}

TEST(SweepDeterminism, ShardedFaultedPointMatchesSerialWindows) {
  const std::vector<RunReport> serial =
      run_experiments({faulted(sharded_cfg(4, false))}, /*jobs=*/1);
  const std::vector<RunReport> parallel =
      run_experiments({faulted(sharded_cfg(4, true))}, /*jobs=*/1);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expect_identical(serial[i], parallel[i], i);
  }
  EXPECT_GT(serial[0].txns, 0.0);
  EXPECT_GT(disk_fault_events(serial[0]), 0.0);
}

TEST(SweepDeterminism, ShardedMailboxesStopGrowing) {
  // Each cross-shard mailbox recycles its spent nodes, so once it reaches its
  // working-set depth it never allocates again: doubling the measure window
  // carries more envelopes through the same number of mailbox nodes. Six
  // nodes on four shards with serial windows reach that depth within 3 s
  // (three nodes on fewer warehouses still grow their mailboxes after 3 s).
  auto cfg = [](double measure) {
    ClusterConfig c;
    c.nodes = 6;
    c.affinity = 1.0;
    c.warehouses_override = 12;
    c.customers_per_district = 60;
    c.items = 200;
    c.terminals_per_node = 8;
    c.warmup = 1.0;
    c.measure = measure;
    c.seed = 23;
    c.shards = 4;
    c.shard_parallel = false;
    return c;
  };
  const std::vector<RunReport> runs =
      run_experiments({cfg(3.0), cfg(6.0)}, /*jobs=*/1);
  auto sum = [](const RunReport& r, const char* leaf) {
    double total = 0.0;
    for (int s = 0; s < r.shard_count; ++s) {
      const auto* m = r.registry.find("shard." + std::to_string(s) + "." + leaf);
      EXPECT_NE(m, nullptr) << "shard." << s << "." << leaf;
      if (m != nullptr) total += m->value;
    }
    return total;
  };
  ASSERT_EQ(runs[0].shard_count, 4);
  EXPECT_GT(sum(runs[1], "envelopes_in"), sum(runs[0], "envelopes_in"));
  EXPECT_GT(sum(runs[0], "mailbox_nodes"), 0.0);
  EXPECT_EQ(sum(runs[1], "mailbox_nodes"), sum(runs[0], "mailbox_nodes"));
}

// --- YCSB workload determinism ---------------------------------------------
// The YCSB path adds its own RNG streams (ycsb-arrival/ycsb-op/ycsb-key), an
// open-loop admission queue and a mid-run hotspot shift; all of it must stay
// a pure function of the config, like TPC-C.

ClusterConfig ycsb_cfg(std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.affinity = 1.0;
  cfg.warehouses_override = 3;
  cfg.customers_per_district = 60;
  cfg.items = 200;
  cfg.warmup = 1.0;
  cfg.measure = 4.0;
  cfg.seed = seed;
  cfg.workload_spec = "ycsb-b";
  cfg.ycsb_records = 30'000;
  cfg.ycsb_arrival = "poisson:10";
  cfg.ycsb_shift = 3;  // hotspot migrates across nodes mid-run
  return cfg;
}

TEST(SweepDeterminism, YcsbParallelMatchesSerialBitForBit) {
  std::vector<ClusterConfig> cfgs;
  cfgs.push_back(ycsb_cfg(41));
  cfgs.push_back(ycsb_cfg(42));
  ClusterConfig faulted = ycsb_cfg(43);
  faulted.fault_spec = "flaps=2,flap_down=0.2,drop=0.02";
  cfgs.push_back(faulted);
  const std::vector<RunReport> serial = run_experiments(cfgs, /*jobs=*/1);
  const std::vector<RunReport> parallel = run_experiments(cfgs, /*jobs=*/3);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expect_identical(serial[i], parallel[i], i);
    EXPECT_GT(serial[i].ycsb_ops, 0.0) << "point " << i << " completed no ops";
    EXPECT_GT(serial[i].sojourn_p99_ms, 0.0);
  }
  // Distinct seeds actually produced distinct runs.
  EXPECT_NE(serial[0].ycsb_ops, serial[1].ycsb_ops);
}

TEST(SweepDeterminism, YcsbShardCountDoesNotChangeResults) {
  // Same domain-keyed ordering argument as TPC-C: one shard vs four must be
  // bit-identical, including the zipfian hotspot shift epochs.
  ClusterConfig one_cfg = ycsb_cfg(57);
  one_cfg.shards = 1;
  one_cfg.shard_parallel = true;
  ClusterConfig many_cfg = one_cfg;
  many_cfg.shards = 4;
  const std::vector<RunReport> one = run_experiments({one_cfg}, /*jobs=*/1);
  const std::vector<RunReport> many = run_experiments({many_cfg}, /*jobs=*/1);
  ASSERT_EQ(one.size(), many.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    RunReport a = one[i];
    RunReport b = many[i];
    a.shard_count = b.shard_count = 0;
    expect_identical(a, b, i);
  }
  EXPECT_GT(one[0].ycsb_ops, 0.0);
}

TEST(SweepDeterminism, YcsbShardedFaultedMatchesSerialWindows) {
  ClusterConfig serial_cfg = ycsb_cfg(61);
  serial_cfg.shards = 4;
  serial_cfg.shard_parallel = false;
  serial_cfg.fault_spec = "flaps=2,flap_down=0.2,drop=0.02";
  ClusterConfig parallel_cfg = serial_cfg;
  parallel_cfg.shard_parallel = true;
  const std::vector<RunReport> serial =
      run_experiments({serial_cfg}, /*jobs=*/1);
  const std::vector<RunReport> parallel =
      run_experiments({parallel_cfg}, /*jobs=*/1);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expect_identical(serial[i], parallel[i], i);
  }
  EXPECT_GT(serial[0].ycsb_ops, 0.0);
}

// --- replication averaging -------------------------------------------------
// run_experiment_avg reseeds before every replication, so averaging one
// replication must reproduce a single run of the reseeded config in every
// field: a field the average forgets reads 0 here.

TEST(RunExperimentAvg, OneReplicationEqualsReseededSingleRun) {
  ClusterConfig tpcc = sharded_cfg(2, false);
  tpcc.transport_spec = "rdma";
  const ClusterConfig ycsb = ycsb_cfg(71);
  std::vector<RunReport> singles;
  for (const ClusterConfig& cfg : {tpcc, ycsb}) {
    ClusterConfig reseeded = cfg;
    reseeded.seed = cfg.seed * 1315423911ULL + 17;
    singles.push_back(run_experiment(reseeded));
    expect_identical(run_experiment_avg(cfg, 1), singles.back(), singles.size() - 1);
  }
  // The points exercise the fields the average used to drop.
  EXPECT_EQ(singles[0].transport, 1);
  EXPECT_EQ(singles[0].shard_count, 2);
  EXPECT_GT(singles[0].txn_ms, 0.0);
  EXPECT_GT(singles[0].business_txns, 0.0);
  EXPECT_GT(singles[1].ycsb_ops, 0.0);
  EXPECT_GT(singles[1].sojourn_p99_ms, 0.0);
}

TEST(SweepDeterminism, RepeatedParallelRunsAgree) {
  const std::vector<ClusterConfig> cfgs = small_grid();
  const std::vector<RunReport> first = run_experiments(cfgs, /*jobs=*/3);
  const std::vector<RunReport> second = run_experiments(cfgs, /*jobs=*/3);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    expect_identical(first[i], second[i], i);
  }
}

}  // namespace
}  // namespace dclue::core
