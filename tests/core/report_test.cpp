#include "core/report.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <string_view>

#include "workload/ycsb.hpp"

namespace dclue::core {
namespace {

using obs::MetricKind;

obs::MetricValue& add(obs::Snapshot& s, std::string name, MetricKind kind) {
  obs::MetricValue& m = s.metrics.emplace_back();
  m.name = std::move(name);
  m.kind = kind;
  return m;
}

obs::MetricValue& entry(obs::Snapshot& s, std::string_view name) {
  const auto it = std::find_if(s.metrics.begin(), s.metrics.end(),
                               [&](const auto& m) { return m.name == name; });
  if (it == s.metrics.end()) throw std::out_of_range(std::string(name));
  return *it;
}

void record(obs::MetricValue& m, std::initializer_list<double> samples) {
  for (double x : samples) m.tally.record(x);
  m.value = m.mean = m.tally.mean();
  m.count = m.tally.count();
}

void set_count(obs::MetricValue& m, std::uint64_t n) {
  m.count = n;
  m.value = static_cast<double>(n);
}

/// A hand-built snapshot holding, all at zero, exactly the metrics
/// summarize() reads for a run of \p cfg.
obs::Snapshot minimal_snapshot(const ClusterConfig& cfg) {
  obs::Snapshot s;
  for (int i = 0; i < cfg.nodes; ++i) {
    const std::string p = "node" + std::to_string(i) + ".";
    for (const char* name :
         {"txn.committed", "txn.aborted", "txn.new_orders_committed",
          "ipc.control_sent", "ipc.data_sent", "lock.waits", "lock.failures",
          "cache.hits", "cache.misses", "cache.remote_fetches", "disk.reads"}) {
      add(s, p + name, MetricKind::kCounter);
    }
    for (const char* name :
         {"ipc.control_msg_delay_s", "lock.wait_time_s", "txn.t_total_s",
          "txn.t_phase1_s", "txn.t_locks_s", "txn.t_log_s", "txn.t_apply_s",
          "cpu.context_switch_cycles"}) {
      add(s, p + name, MetricKind::kTally);
    }
    add(s, p + "cpu.active_threads", MetricKind::kTimeWeighted);
    add(s, p + "cpu.instructions", MetricKind::kAccum);
    add(s, p + "cpu.cycles", MetricKind::kAccum);
    add(s, p + "cpu.utilization", MetricKind::kGauge);
  }
  for (int l = 0; l < cfg.latas(); ++l) {
    const std::string p = "fabric.link.lata" + std::to_string(l);
    add(s, p + "-up.bytes_sent", MetricKind::kCounter);
    add(s, p + "-down.bytes_sent", MetricKind::kCounter);
  }
  add(s, "fabric.total_drops", MetricKind::kGauge);
  const bool ycsb = workload::is_ycsb(cfg.workload_spec);
  for (int h = 0; h < cfg.client_hosts(); ++h) {
    const std::string p =
        "client" + std::to_string(h) + (ycsb ? ".ycsb." : ".");
    add(s, p + "admission_drops", MetricKind::kGauge);
    add(s, p + "connection_failures", MetricKind::kGauge);
    if (ycsb) {
      add(s, p + "ops_completed", MetricKind::kCounter);
      add(s, p + "sojourn", MetricKind::kHistogram)
          .histogram.emplace(0.0, 60.0, 3000);
    } else {
      add(s, p + "business_txns", MetricKind::kGauge);
    }
  }
  add(s, "net.transport", MetricKind::kGauge);
  return s;
}

TEST(Summarize, MergedMeansEqualTallyMerge) {
  ClusterConfig cfg;
  cfg.nodes = 3;
  obs::Snapshot s = minimal_snapshot(cfg);
  // Unequal sample counts per node: the merged mean is not the mean of the
  // per-node means.
  record(entry(s, "node0.txn.t_total_s"), {0.010, 0.030});
  record(entry(s, "node1.txn.t_total_s"), {0.500});
  record(entry(s, "node2.txn.t_total_s"), {0.020, 0.040, 0.070, 0.110});
  record(entry(s, "node0.lock.wait_time_s"), {0.003});
  record(entry(s, "node2.lock.wait_time_s"), {0.001, 0.017, 0.0049});
  record(entry(s, "node1.ipc.control_msg_delay_s"), {0.0021, 0.0007});
  record(entry(s, "node2.ipc.control_msg_delay_s"), {0.0133});
  set_count(entry(s, "node0.txn.committed"), 2);
  set_count(entry(s, "node1.txn.committed"), 1);
  set_count(entry(s, "node2.txn.committed"), 4);
  set_count(entry(s, "node1.ipc.control_sent"), 5);

  obs::Tally total, lock, ctrl;
  double mean_of_means = 0.0;
  for (int i = 0; i < cfg.nodes; ++i) {
    const std::string p = "node" + std::to_string(i) + ".";
    total.merge(entry(s, p + "txn.t_total_s").tally);
    lock.merge(entry(s, p + "lock.wait_time_s").tally);
    ctrl.merge(entry(s, p + "ipc.control_msg_delay_s").tally);
    mean_of_means += entry(s, p + "txn.t_total_s").tally.mean() / cfg.nodes;
  }

  const RunReport r = summarize(cfg, s);
  EXPECT_EQ(r.txn_ms, total.mean() * (1e3 / cfg.scale));
  EXPECT_NE(r.txn_ms, mean_of_means * (1e3 / cfg.scale));
  EXPECT_EQ(r.lock_wait_time_ms, lock.mean() / cfg.scale * 1e3);
  EXPECT_EQ(r.control_msg_delay_ms, ctrl.mean() / cfg.scale * 1e3);
  EXPECT_EQ(r.txns, 7.0);
  EXPECT_EQ(r.ipc_control_per_txn, 5.0 / 7.0);
  EXPECT_EQ(r.registry.metrics.size(), s.metrics.size());
}

TEST(Summarize, SojournQuantilesMergeBothFleets) {
  ClusterConfig cfg;
  cfg.nodes = 8;  // two client hosts, so two YCSB fleets
  cfg.workload_spec = "ycsb-a";
  obs::Snapshot s = minimal_snapshot(cfg);
  obs::MetricValue& fast = entry(s, "client0.ycsb.sojourn");
  obs::MetricValue& slow = entry(s, "client1.ycsb.sojourn");
  for (int k = 0; k < 90; ++k) fast.histogram->record(0.001 * (k % 7 + 1));
  for (int k = 0; k < 30; ++k) slow.histogram->record(0.2 + 0.01 * k);
  set_count(entry(s, "client0.ycsb.ops_completed"), 90);
  set_count(entry(s, "client1.ycsb.ops_completed"), 30);

  obs::Histogram merged = *fast.histogram;
  merged.merge(*slow.histogram);
  ASSERT_NE(merged.quantile(0.99), fast.histogram->quantile(0.99));
  ASSERT_NE(merged.quantile(0.50), slow.histogram->quantile(0.50));

  const RunReport r = summarize(cfg, s);
  EXPECT_EQ(r.sojourn_p50_ms, merged.quantile(0.50) / cfg.scale * 1e3);
  EXPECT_EQ(r.sojourn_p99_ms, merged.quantile(0.99) / cfg.scale * 1e3);
  EXPECT_EQ(r.ycsb_ops, 120.0);
  EXPECT_EQ(r.ycsb_op_rate, 120.0 / cfg.measure);
}

TEST(Summarize, SnapshotMissingAPerNodeMetricThrows) {
  ClusterConfig cfg;
  cfg.nodes = 2;
  obs::Snapshot s = minimal_snapshot(cfg);
  EXPECT_NO_THROW((void)summarize(cfg, s));
  std::erase_if(s.metrics,
                [](const auto& m) { return m.name == "node1.cpu.cycles"; });
  EXPECT_THROW((void)summarize(cfg, s), std::logic_error);
}

TEST(Summarize, SnapshotWithMoreNodesThanConfigThrows) {
  ClusterConfig cfg;
  cfg.nodes = 3;
  const obs::Snapshot s = minimal_snapshot(cfg);
  cfg.nodes = 2;
  EXPECT_THROW((void)summarize(cfg, s), std::logic_error);
}

TEST(Summarize, SnapshotMissingAClusterMetricThrows) {
  ClusterConfig cfg;
  cfg.nodes = 2;
  obs::Snapshot s = minimal_snapshot(cfg);
  std::erase_if(s.metrics,
                [](const auto& m) { return m.name == "net.transport"; });
  EXPECT_THROW((void)summarize(cfg, s), std::logic_error);
}

}  // namespace
}  // namespace dclue::core
