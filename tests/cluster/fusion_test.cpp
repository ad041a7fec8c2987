#include "net/tcp.hpp"
#include "cluster/fusion.hpp"

#include <gtest/gtest.h>

#include "net/topology.hpp"
#include "storage/disk_array.hpp"

namespace dclue::cluster {
namespace {

/// Two fully-wired fusion nodes over a real fabric (no DBMS on top).
struct Harness {
  sim::Engine engine;
  std::unique_ptr<net::Topology> topo;
  struct NodeBits {
    std::unique_ptr<net::TcpStack> stack;
    core::NodeStats stats;
    std::unique_ptr<db::BufferCache> cache;
    std::unique_ptr<DirectoryService> directory;
    std::unique_ptr<db::LockManager> locks;
    std::unique_ptr<storage::DiskArray> disk;
    std::unique_ptr<IpcService> ipc;
    std::unique_ptr<proto::IscsiTarget> target;
    std::vector<std::unique_ptr<proto::IscsiInitiator>> initiators;
    std::unique_ptr<FusionLayer> fusion;
  };
  std::array<NodeBits, 2> nodes;

  Harness() {
    net::TopologyParams tp;
    tp.servers_per_lata = 2;
    topo = std::make_unique<net::Topology>(engine, tp);
    for (int i = 0; i < 2; ++i) {
      auto& n = nodes[static_cast<std::size_t>(i)];
      n.stack = std::make_unique<net::TcpStack>(engine, topo->server_nic(i),
                                                net::TcpParams{},
                                                net::TcpCostModel{}, nullptr);
      n.cache = std::make_unique<db::BufferCache>(64);
      n.directory = std::make_unique<DirectoryService>();
      n.locks = std::make_unique<db::LockManager>(engine);
      n.disk = std::make_unique<storage::DiskArray>(engine, "d", 4,
                                                    storage::DiskParams{});
      n.ipc = std::make_unique<IpcService>(engine, i, n.stats, 0.0, nullptr);
      n.target = std::make_unique<proto::IscsiTarget>(engine, *n.disk, nullptr,
                                                      proto::IscsiCostModel{});
      n.initiators.resize(2);
      for (int j = 0; j < 2; ++j) {
        n.initiators[static_cast<std::size_t>(j)] =
            std::make_unique<proto::IscsiInitiator>(engine, nullptr,
                                                    proto::IscsiCostModel{});
      }
      FusionDeps deps;
      deps.engine = &engine;
      deps.node_id = i;
      deps.ipc = n.ipc.get();
      deps.cache = n.cache.get();
      deps.directory = n.directory.get();
      deps.locks = n.locks.get();
      deps.data_disk = n.disk.get();
      deps.iscsi = {n.initiators[0].get(), n.initiators[1].get()};
      deps.stats = &n.stats;
      // Even pages home at 0, odd at 1 (deterministic for tests).
      deps.dir_home_fn = [](db::PageId page) {
        return static_cast<int>(db::page_number(page) % 2);
      };
      n.fusion = std::make_unique<FusionLayer>(std::move(deps));
    }
    // Wire IPC (one duplex channel) and iSCSI (both directions).
    auto& ipc_listener = nodes[1].stack->listen(7000);
    sim::spawn([](Harness& h, net::Listener& l) -> sim::Task<void> {
      auto conn = co_await l.accept();
      h.nodes[1].ipc->attach_peer(0, std::make_shared<proto::MsgChannel>(conn));
    }(*this, ipc_listener));
    auto conn = nodes[0].stack->connect(topo->server_nic(1).address(), 7000);
    nodes[0].ipc->attach_peer(1, std::make_shared<proto::MsgChannel>(conn));
    for (int tgt = 0; tgt < 2; ++tgt) {
      const int ini = 1 - tgt;
      auto& listener = nodes[static_cast<std::size_t>(tgt)].stack->listen(
          static_cast<std::uint16_t>(9000 + ini));
      sim::spawn([](Harness& h, net::Listener& l, int tgt) -> sim::Task<void> {
        auto c = co_await l.accept();
        h.nodes[static_cast<std::size_t>(tgt)].target->serve(
            std::make_shared<proto::MsgChannel>(c));
      }(*this, listener, tgt));
      auto c2 = nodes[static_cast<std::size_t>(ini)].stack->connect(
          topo->server_nic(tgt).address(), static_cast<std::uint16_t>(9000 + ini));
      nodes[static_cast<std::size_t>(ini)]
          .initiators[static_cast<std::size_t>(tgt)]
          ->attach(std::make_shared<proto::MsgChannel>(c2));
    }
    engine.run_until(1.0);  // let the sessions establish
  }

  FusionLayer& fusion(int i) { return *nodes[static_cast<std::size_t>(i)].fusion; }
  db::BufferCache& cache(int i) { return *nodes[static_cast<std::size_t>(i)].cache; }
  core::NodeStats& stats(int i) { return nodes[static_cast<std::size_t>(i)].stats; }
};

db::PageId pg(std::uint64_t n) {
  return db::make_page_id(db::TableId::kCustomer, false, n);
}

TEST(Fusion, ColdMissGoesToDiskAndCaches) {
  Harness h;
  bool done = false;
  sim::spawn([](Harness& h, bool& ok) -> sim::Task<void> {
    co_await h.fusion(0).access_page(pg(2), false);  // home 0, local
    ok = true;
  }(h, done));
  h.engine.run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(h.cache(0).contains(pg(2), db::PageMode::kShared));
  EXPECT_EQ(h.stats(0).disk_reads.count(), 1u);
  EXPECT_EQ(h.stats(0).remote_fetches.count(), 0u);
}

TEST(Fusion, SecondAccessIsAHit) {
  Harness h;
  sim::spawn([](Harness& h) -> sim::Task<void> {
    co_await h.fusion(0).access_page(pg(2), false);
    co_await h.fusion(0).access_page(pg(2), false);
  }(h));
  h.engine.run();
  EXPECT_EQ(h.stats(0).buffer_hits.count(), 1u);
  EXPECT_EQ(h.stats(0).buffer_misses.count(), 1u);
}

TEST(Fusion, RemoteCacheSuppliesBlockInsteadOfDisk) {
  Harness h;
  sim::spawn([](Harness& h) -> sim::Task<void> {
    co_await h.fusion(0).access_page(pg(2), false);  // node 0 caches it
    co_await h.fusion(1).access_page(pg(2), false);  // node 1 fetches from 0
  }(h));
  h.engine.run();
  EXPECT_TRUE(h.cache(1).contains(pg(2), db::PageMode::kShared));
  EXPECT_EQ(h.stats(1).remote_fetches.count(), 1u);
  EXPECT_EQ(h.stats(1).disk_reads.count(), 0u);  // cache fusion's whole point
  EXPECT_GT(h.stats(0).ipc_data_sent.count(), 0u);  // the 8KB+ block message
}

TEST(Fusion, ExclusiveAccessInvalidatesOtherHolders) {
  Harness h;
  sim::spawn([](Harness& h) -> sim::Task<void> {
    co_await h.fusion(0).access_page(pg(2), false);
    co_await h.fusion(1).access_page(pg(2), false);
    // Node 1 upgrades to exclusive: node 0's copy must be invalidated.
    co_await h.fusion(1).access_page(pg(2), true);
    co_await sim::delay_for(h.engine, 1.0);  // let the invalidation land
  }(h));
  h.engine.run();
  EXPECT_TRUE(h.cache(1).contains(pg(2), db::PageMode::kExclusive));
  EXPECT_FALSE(h.cache(0).resident(pg(2)));
}

TEST(Fusion, UpgradeOfResidentPageMovesNoData) {
  Harness h;
  sim::spawn([](Harness& h) -> sim::Task<void> {
    co_await h.fusion(0).access_page(pg(2), false);
    co_await h.fusion(0).access_page(pg(2), true);  // upgrade in place
  }(h));
  h.engine.run();
  EXPECT_TRUE(h.cache(0).contains(pg(2), db::PageMode::kExclusive));
  EXPECT_EQ(h.stats(0).remote_fetches.count(), 0u);
  EXPECT_EQ(h.stats(0).disk_reads.count(), 1u);  // only the original fill
}

TEST(Fusion, AllocatedPageSkipsDisk) {
  Harness h;
  sim::spawn([](Harness& h) -> sim::Task<void> {
    co_await h.fusion(0).access_page(pg(4), true, /*allocate=*/true);
  }(h));
  h.engine.run();
  EXPECT_TRUE(h.cache(0).contains(pg(4), db::PageMode::kExclusive));
  EXPECT_EQ(h.stats(0).disk_reads.count(), 0u);
}

TEST(Fusion, RemoteDirectoryHomeIsConsulted) {
  Harness h;
  bool done = false;
  sim::spawn([](Harness& h, bool& ok) -> sim::Task<void> {
    // Page 3 homes at node 1; node 0 must RPC the directory there.
    co_await h.fusion(0).access_page(pg(3), false);
    ok = true;
  }(h, done));
  h.engine.run();
  EXPECT_TRUE(done);
  EXPECT_GT(h.stats(0).ipc_control_sent.count(), 0u);
  EXPECT_EQ(h.nodes[1].directory->holder_count(pg(3)), 1);
}

TEST(Fusion, RemoteStorageHomeUsesIscsi) {
  Harness h;
  sim::spawn([](Harness& h) -> sim::Task<void> {
    // Page 3 homes at node 1 and no cache holds it: node 0 reads it from
    // node 1's disks over iSCSI.
    co_await h.fusion(0).access_page(pg(3), false);
  }(h));
  h.engine.run();
  EXPECT_EQ(h.stats(0).disk_reads.count(), 1u);
  EXPECT_EQ(h.stats(0).iscsi_reads.count(), 1u);
  EXPECT_GT(h.nodes[1].target->commands_served(), 0u);
  EXPECT_EQ(h.nodes[0].target->commands_served(), 0u);
}

TEST(Fusion, HomeNodeMissFetchesFromPeerCache) {
  Harness h;
  std::uint64_t control_before = 0;
  sim::spawn([](Harness& h, std::uint64_t& before) -> sim::Task<void> {
    // Page 2 homes at node 0, but only node 1 holds it.
    co_await h.fusion(1).access_page(pg(2), false);
    before = h.stats(0).ipc_control_sent.count();
    // Node 0's own directory names node 1 as supplier: node 0 forwards the
    // request there and node 1 ships the block.
    co_await h.fusion(0).access_page(pg(2), false);
  }(h, control_before));
  h.engine.run();
  EXPECT_TRUE(h.cache(0).contains(pg(2), db::PageMode::kShared));
  EXPECT_EQ(h.stats(0).remote_fetches.count(), 1u);
  EXPECT_EQ(h.stats(0).disk_reads.count(), 0u);
  EXPECT_EQ(h.stats(1).ipc_data_sent.count(), 1u);
  // One control message from node 0: the forward. The lookup is local, so
  // there is no directory request and no confirm.
  EXPECT_EQ(h.stats(0).ipc_control_sent.count() - control_before, 1u);
  EXPECT_EQ(h.nodes[0].directory->holder_count(pg(2)), 2);
}

TEST(Fusion, RemoteIndexLeafCountsAsIndexPerTable) {
  Harness h;
  // An index leaf of the customer table, homed at node 0 (even page).
  const db::PageId leaf = db::make_page_id(db::TableId::kCustomer, true, 2);
  sim::spawn([](Harness& h, db::PageId leaf) -> sim::Task<void> {
    co_await h.fusion(0).access_page(leaf, false);  // node 0 reads it from disk
    co_await h.fusion(1).access_page(leaf, false);  // node 1 fetches it from node 0
  }(h, leaf));
  h.engine.run();
  const auto t = static_cast<std::size_t>(db::TableId::kCustomer);
  EXPECT_EQ(h.stats(1).remote_fetches.count(), 1u);
  EXPECT_EQ(h.stats(1).remote_index_by_table[t].count(), 1u);
  EXPECT_EQ(h.stats(1).remote_by_table[t].count(), 0u);
  EXPECT_EQ(h.stats(0).disk_index_by_table[t].count(), 1u);
}

TEST(Fusion, ConcurrentAccessesCoalesceIntoOneFetch) {
  Harness h;
  int completions = 0;
  for (int k = 0; k < 5; ++k) {
    sim::spawn([](Harness& h, int& done) -> sim::Task<void> {
      co_await h.fusion(0).access_page(pg(2), false);
      ++done;
    }(h, completions));
  }
  h.engine.run();
  EXPECT_EQ(completions, 5);
  EXPECT_EQ(h.stats(0).disk_reads.count(), 1u);  // one fill served everybody
}

TEST(Fusion, GlobalLocksRouteToHomeNode) {
  Harness h;
  bool granted_local = false, granted_remote = false, conflict = true;
  sim::spawn([](Harness& h, bool& gl, bool& gr, bool& cf) -> sim::Task<void> {
    // pg(2) homes at node 0, pg(3) at node 1.
    gl = co_await h.fusion(0).lock(pg(2), 0, /*txn=*/1, /*wait=*/false);
    gr = co_await h.fusion(0).lock(pg(3), 0, /*txn=*/1, /*wait=*/false);
    cf = co_await h.fusion(1).lock(pg(3), 0, /*txn=*/2, /*wait=*/false);
    co_await h.fusion(0).lock_release(pg(3), 0, 1);
    co_await h.fusion(0).lock_release(pg(2), 0, 1);
  }(h, granted_local, granted_remote, conflict));
  h.engine.run();
  EXPECT_TRUE(granted_local);
  EXPECT_TRUE(granted_remote);
  EXPECT_FALSE(conflict);
  // After release, node 1 can take the lock.
  bool after = false;
  sim::spawn([](Harness& h, bool& ok) -> sim::Task<void> {
    ok = co_await h.fusion(1).lock(pg(3), 0, 3, /*wait=*/false);
  }(h, after));
  h.engine.run();
  EXPECT_TRUE(after);
}

TEST(Fusion, RemoteLockWaitBlocksUntilRelease) {
  Harness h;
  sim::Time granted_at = -1.0;
  sim::spawn([](Harness& h) -> sim::Task<void> {
    // pg(3) homes at node 1: the holder is local there.
    co_await h.fusion(1).lock(pg(3), 0, 1, /*wait=*/false);
    co_await sim::delay_for(h.engine, 5.0);
    co_await h.fusion(1).lock_release(pg(3), 0, 1);
  }(h));
  sim::spawn([](Harness& h, sim::Time& t) -> sim::Task<void> {
    co_await sim::delay_for(h.engine, 2.0);
    const bool ok = co_await h.fusion(0).lock(pg(3), 0, 2, /*wait=*/true);  // remote
    if (ok) t = h.engine.now();
  }(h, granted_at));
  h.engine.run();
  // Harness setup ran to t=1.0; holder releases at ~6.0, waiter granted then.
  EXPECT_GT(granted_at, 5.9);
}

}  // namespace
}  // namespace dclue::cluster
