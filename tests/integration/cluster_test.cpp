#include "core/cluster.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/partition.hpp"
#include "core/experiment.hpp"

namespace dclue::core {
namespace {

/// Small, fast cluster configuration for integration testing.
ClusterConfig tiny(int nodes, double affinity) {
  ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.affinity = affinity;
  cfg.warehouses_override = 4 * nodes;
  cfg.customers_per_district = 60;
  cfg.items = 200;
  cfg.terminals_per_node = 12;
  cfg.warmup = 2.0;
  cfg.measure = 8.0;
  cfg.seed = 42;
  return cfg;
}

TEST(ClusterIntegration, SingleNodeCommitsTransactions) {
  RunReport r = run_experiment(tiny(1, 1.0));
  EXPECT_GT(r.txns, 50.0);
  EXPECT_GT(r.tpmc, 0.0);
  // Affinity 1.0, single node: no IPC at all.
  EXPECT_EQ(r.ipc_control_per_txn, 0.0);
  EXPECT_EQ(r.ipc_data_per_txn, 0.0);
  EXPECT_LT(r.abort_rate, 0.10);
  EXPECT_GT(r.buffer_hit_ratio, 0.3);
}

TEST(ClusterIntegration, TwoNodesAffinityOneHasMinimalIpc) {
  RunReport r = run_experiment(tiny(2, 1.0));
  EXPECT_GT(r.txns, 80.0);
  // "With affinity 1.0 there is almost no IPC traffic (except for occasional
  // access to item table pages)" — directory homes are hashed, so some
  // control messaging remains, but data blocks should rarely move.
  EXPECT_LT(r.ipc_data_per_txn, 3.0);
}

TEST(ClusterIntegration, LowAffinityGeneratesIpcTraffic) {
  RunReport low = run_experiment(tiny(2, 0.0));
  RunReport high = run_experiment(tiny(2, 1.0));
  EXPECT_GT(low.ipc_control_per_txn, high.ipc_control_per_txn + 1.0);
  EXPECT_GT(low.ipc_data_per_txn, high.ipc_data_per_txn);
  EXPECT_GT(low.remote_fetch_per_txn, 0.0);
}

TEST(ClusterIntegration, FourNodesScaleThroughputOverOne) {
  RunReport one = run_experiment(tiny(1, 1.0));
  ClusterConfig cfg4 = tiny(4, 1.0);
  RunReport four = run_experiment(cfg4);
  EXPECT_GT(four.tpmc, one.tpmc * 2.0);
}

TEST(ClusterIntegration, RdmaTransportRunsEndToEnd) {
  ClusterConfig cfg = tiny(2, 0.5);  // low affinity: real IPC + iSCSI traffic
  cfg.transport_spec = "rdma";
  RunReport r = run_experiment(cfg);
  EXPECT_EQ(r.transport, 1);  // net::TransportKind::kRdma echoed into report
  EXPECT_GT(r.txns, 80.0);
  EXPECT_GT(r.ipc_control_per_txn, 0.0);
  EXPECT_GT(r.remote_fetch_per_txn, 0.0);
  // The cluster fabric really ran kernel-bypass: frames moved through the
  // RDMA stacks, and the gauge the cluster registers reports the kind.
  const auto* frames = r.registry.find("node0.rdma.frames_sent");
  ASSERT_NE(frames, nullptr);
  EXPECT_GT(frames->count, 0u);
  const auto* kind = r.registry.find("net.transport");
  ASSERT_NE(kind, nullptr);
  EXPECT_EQ(kind->value, 1.0);
}

TEST(ClusterIntegration, RdmaCutsIpcDelayVersusTcp) {
  // The headline counterfactual: identical cluster, identical workload and
  // seed, only the fabric changes. Kernel-bypass must deliver control
  // messages faster than the software TCP path (no per-segment CPU charges,
  // no cwnd ramp), and the default TCP twin must report transport == 0.
  ClusterConfig cfg = tiny(2, 0.5);
  RunReport tcp = run_experiment(cfg);
  cfg.transport_spec = "rdma";
  RunReport rdma = run_experiment(cfg);
  EXPECT_EQ(tcp.transport, 0);
  EXPECT_EQ(rdma.transport, 1);
  EXPECT_GT(tcp.control_msg_delay_ms, 0.0);
  EXPECT_GT(rdma.control_msg_delay_ms, 0.0);
  EXPECT_LT(rdma.control_msg_delay_ms, tcp.control_msg_delay_ms);
  EXPECT_GE(rdma.tpmc, tcp.tpmc);
}

TEST(ClusterIntegration, CommittedWorkIsDurablyLogged) {
  ClusterConfig cfg = tiny(2, 1.0);
  Cluster cluster(cfg);
  RunReport r = cluster.run();
  EXPECT_GT(r.txns, 0.0);
  for (int i = 0; i < cfg.nodes; ++i) {
    EXPECT_GT(cluster.node(i).log_manager().bytes_logged(), 0);
    EXPECT_GT(cluster.node(i).log_disk().ops_completed(), 0u);
  }
}

TEST(ClusterIntegration, CentralLoggingRoutesToNodeZero) {
  ClusterConfig cfg = tiny(3, 0.8);
  cfg.central_logging = true;
  Cluster cluster(cfg);
  RunReport r = cluster.run();
  EXPECT_GT(r.txns, 0.0);
  // Only node 0's log disk sees writes.
  EXPECT_GT(cluster.node(0).log_disk().ops_completed(), 0u);
  EXPECT_EQ(cluster.node(1).log_disk().ops_completed(), 0u);
  EXPECT_EQ(cluster.node(2).log_disk().ops_completed(), 0u);
}

TEST(ClusterIntegration, DatabaseStateAdvancesConsistently) {
  ClusterConfig cfg = tiny(2, 0.8);
  Cluster cluster(cfg);
  RunReport r = cluster.run();
  EXPECT_GT(r.txns, 0.0);
  // New orders inserted: order table grew beyond its initial population.
  auto& db = cluster.database();
  const auto initial_orders = static_cast<std::size_t>(
      db.scale().warehouses * db.scale().districts_per_warehouse *
      db.scale().initial_orders_per_district);
  EXPECT_GT(db.order.size(), initial_orders);
  EXPECT_GT(db.order_line.size(), initial_orders * 5);
  // District next_o_id values moved past their initial value somewhere.
  bool advanced = false;
  for (std::int64_t w = 1; w <= db.scale().warehouses && !advanced; ++w) {
    for (std::int64_t d = 1; d <= 10 && !advanced; ++d) {
      auto* row = db.district.find(db::key_wd(w, d));
      ASSERT_NE(row, nullptr);
      if (row->next_o_id > db.scale().initial_orders_per_district + 1) advanced = true;
    }
  }
  EXPECT_TRUE(advanced);
}

TEST(ClusterIntegration, DeterministicAcrossRunsWithSameSeed) {
  RunReport a = run_experiment(tiny(2, 0.8));
  RunReport b = run_experiment(tiny(2, 0.8));
  EXPECT_DOUBLE_EQ(a.txns, b.txns);
  EXPECT_DOUBLE_EQ(a.tpmc, b.tpmc);
  EXPECT_DOUBLE_EQ(a.ipc_control_per_txn, b.ipc_control_per_txn);
}

TEST(ClusterIntegration, DifferentSeedsDiffer) {
  ClusterConfig cfg = tiny(2, 0.8);
  RunReport a = run_experiment(cfg);
  cfg.seed = 777;
  RunReport b = run_experiment(cfg);
  EXPECT_NE(a.txns, b.txns);
}

TEST(ClusterIntegration, SoftwareTcpIsSlowerAtLowAffinity) {
  ClusterConfig hw = tiny(2, 0.5);
  ClusterConfig sw = hw;
  sw.hw_tcp = false;
  sw.hw_iscsi = false;
  RunReport rh = run_experiment(hw);
  RunReport rs = run_experiment(sw);
  EXPECT_GT(rh.tpmc, rs.tpmc);
}

TEST(ClusterIntegration, CrossTrafficRunsAlongsideDbms) {
  ClusterConfig cfg = tiny(2, 0.8);
  cfg.ftp.offered_load_mbps = 50.0;
  RunReport r = run_experiment(cfg);
  EXPECT_GT(r.txns, 0.0);
  EXPECT_GT(r.ftp_carried_mbps, 1.0);
}

TEST(ClusterIntegration, ScaleInvarianceOfThroughput) {
  // The paper's 100x methodology: all inputs are path lengths, so slowing
  // every clock by the same factor must leave the scaled-back tpm-C
  // unchanged (within stochastic noise).
  ClusterConfig a = tiny(2, 0.8);
  ClusterConfig b = a;
  a.scale = 100.0;
  b.scale = 50.0;
  RunReport ra = run_experiment(a);
  RunReport rb = run_experiment(b);
  ASSERT_GT(ra.tpmc, 0.0);
  ASSERT_GT(rb.tpmc, 0.0);
  EXPECT_NEAR(rb.tpmc / ra.tpmc, 1.0, 0.25);
}

TEST(ClusterIntegration, OpenLoopDeliversOfferedLoad) {
  ClusterConfig cfg = tiny(2, 0.8);
  cfg.open_loop_bt_rate_per_node = 1.0;  // well under capacity
  cfg.measure = 40.0;  // enough arrivals to average out Poisson noise
  RunReport r = run_experiment(cfg);
  // Offered: 2 nodes x 1 bt/s x ~2.33 txns/bt over the measure window.
  const double offered = 2.0 * 1.0 * (2.0 + 0.14 / 0.43);
  EXPECT_NEAR(r.txn_rate, offered, offered * 0.35);
  EXPECT_EQ(r.admission_drops, 0u);
}

TEST(ClusterIntegration, ExtraLatencyRaisesControlDelay) {
  ClusterConfig base = tiny(4, 0.5);
  base.max_servers_per_lata = 2;  // 2 LATAs so inter-LATA latency applies
  RunReport r0 = run_experiment(base);
  ClusterConfig lat = base;
  lat.extra_inter_lata_latency = 2e-3;
  RunReport r2 = run_experiment(lat);
  EXPECT_GT(r2.control_msg_delay_ms, r0.control_msg_delay_ms * 1.5);
  EXPECT_GT(r2.tpmc, 0.0);
}

TEST(ClusterIntegration, YcsbClientsCountOnlyCommittedOps) {
  // Every node is dead from the start, so every op aborts at the server.
  // An aborted reply is neither a completed op nor a sojourn sample.
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.workload_spec = "ycsb-a";
  cfg.ycsb_records = 10'000;
  cfg.ycsb_arrival = "poisson:10";
  cfg.warmup = 1.0;
  cfg.measure = 2.0;
  cfg.seed = 5;
  Cluster cluster(cfg);
  for (int i = 0; i < cfg.nodes; ++i) cluster.node(i).set_alive(false);
  RunReport r = cluster.run();
  EXPECT_EQ(r.txns, 0.0);
  EXPECT_EQ(r.abort_rate, 1.0);
  EXPECT_EQ(r.ycsb_ops, 0.0);
  EXPECT_EQ(r.sojourn_p50_ms, 0.0);
  EXPECT_EQ(r.sojourn_p99_ms, 0.0);
}

TEST(ClusterIntegration, LockActivityObservedUnderContention) {
  // Few warehouses + low affinity = district hotspot contention.
  ClusterConfig cfg = tiny(2, 0.0);
  cfg.warehouses_override = 2;
  cfg.terminals_per_node = 16;
  RunReport r = run_experiment(cfg);
  EXPECT_GT(r.txns, 0.0);
  EXPECT_GT(r.lock_waits_per_txn + r.lock_failures_per_txn, 0.0);
}

/// Every page prewarm considers, in its order: tables hottest first, each
/// table's data pages and then its index leaf pages.
template <typename Fn>
void for_each_prewarm_page(const db::TpccDatabase& db, Fn fn) {
  auto table_pages = [&fn](const auto& table) {
    table.for_each_data_page(fn);
    table.for_each_index_page(fn);
  };
  table_pages(db.warehouse);
  table_pages(db.district);
  table_pages(db.item);
  table_pages(db.stock);
  table_pages(db.new_order);
  table_pages(db.order);
  table_pages(db.order_line);
  table_pages(db.customer);
  if (db.ycsb) table_pages(*db.ycsb);
}

TEST(Prewarm, SingleNodeStopsAtNinetyPercentOfCapacity) {
  Cluster cluster(tiny(1, 1.0));
  cluster.prewarm();
  db::BufferCache& cache = cluster.node(0).cache();
  cluster::DirectoryService& dir = cluster.node(0).directory();
  std::size_t cutoff = 0;  // ⌈0.9·capacity⌉
  while (cutoff * 10 < cache.capacity() * 9) ++cutoff;
  std::size_t pages = 0;
  for_each_prewarm_page(cluster.database(), [&](db::PageId) { ++pages; });
  ASSERT_GT(pages, cutoff);  // the cutoff binds
  EXPECT_EQ(cache.size(), cutoff);
  EXPECT_EQ(dir.entries(), cutoff);
  // The warm pages are the first `cutoff`, each held by its home alone.
  std::size_t i = 0;
  for_each_prewarm_page(cluster.database(), [&](db::PageId page) {
    const bool warm = i++ < cutoff;
    ASSERT_EQ(cache.resident(page), warm) << i;
    if (!warm) return;
    ASSERT_EQ(dir.holder_count(page), 1) << i;
    ASSERT_EQ(dir.lookup(page, 1, false).supplier, 0) << i;
  });
}

TEST(Prewarm, EachNodeHoldsExactlyThePagesItHomesInOrder) {
  constexpr int kNodes = 3;
  Cluster cluster(tiny(kNodes, 1.0));
  cluster.prewarm();
  const cluster::PartitionMap pm(cluster.database(), kNodes);
  std::vector<std::vector<db::PageId>> homed(kNodes);
  for_each_prewarm_page(cluster.database(), [&](db::PageId page) {
    const int home = pm.home_of_page(page);
    homed[static_cast<std::size_t>(home)].push_back(page);
    for (int n = 0; n < kNodes; ++n) {
      ASSERT_EQ(cluster.node(n).cache().resident(page), n == home) << n;
    }
    cluster::DirectoryService& dir = cluster.node(home).directory();
    ASSERT_EQ(dir.holder_count(page), 1);
    ASSERT_EQ(dir.lookup(page, (home + 1) % kNodes, false).supplier, home);
  });
  for (int n = 0; n < kNodes; ++n) {
    const auto& pages = homed[static_cast<std::size_t>(n)];
    db::BufferCache& cache = cluster.node(n).cache();
    ASSERT_GT(pages.size(), 0u);
    EXPECT_EQ(cache.size(), pages.size());
    EXPECT_EQ(cluster.node(n).directory().entries(), pages.size());
    // Recency order is insert order: the coldest pages come out first.
    auto coldest = cache.steal_for_versions(4);
    ASSERT_EQ(coldest.size(), 4u);
    for (std::size_t k = 0; k < coldest.size(); ++k) {
      EXPECT_EQ(coldest[k], pages[k]) << n << " " << k;
    }
  }
}

TEST(ClusterIntegration, RejectsMoreNodesThanHolderIdsHold) {
  // Checked before anything is built. plan_shards would reject this config
  // too (shards with affinity below 1), with another message.
  ClusterConfig cfg = tiny(1, 0.5);
  cfg.nodes = cluster::DirectoryService::kMaxNodes + 1;
  cfg.shards = 1;
  try {
    Cluster cluster(cfg);
    FAIL() << "a 32768-node cluster was built";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("32767"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace dclue::core
