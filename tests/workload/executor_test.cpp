/// Focused transaction-executor tests on a single assembled node: commit
/// and rollback semantics, per-type effects, and the two-phase locking
/// discipline, for TPC-C transactions and YCSB keyed ops — without the full
/// cluster/client machinery around them.

#include <gtest/gtest.h>

#include <string>

#include "core/node.hpp"

namespace dclue::workload {
namespace {

struct MiniNode {
  core::ClusterConfig cfg;
  sim::Engine engine;
  sim::RngFactory rngs{123};
  std::unique_ptr<db::TpccDatabase> db;
  std::unique_ptr<net::Topology> topo;
  std::unique_ptr<core::Node> node;
  std::unique_ptr<TxnExecutor> exec;
  std::uint64_t clock = 1;
  sim::Rng rng{7};
  bool alive = true;
  core::NodeStats* stats = nullptr;

  explicit MiniNode(std::string workload_spec = "tpcc") {
    cfg.nodes = 1;
    cfg.warehouses_override = 4;
    cfg.customers_per_district = 60;
    cfg.items = 200;
    cfg.workload_spec = std::move(workload_spec);
    cfg.ycsb_records = 10'000;
    db::TpccScale scale;
    scale.warehouses = cfg.warehouses();
    scale.customers_per_district = cfg.customers_per_district;
    scale.items = cfg.items;
    db = std::make_unique<db::TpccDatabase>(scale);
    sim::Rng pop(1);
    db->populate(pop);
    // As in Cluster: the keyed table exists on ycsb runs only, and before
    // the node, whose buffer cache is sized from the page count.
    if (is_ycsb(cfg.workload_spec)) db->build_ycsb(cfg.ycsb_records);

    net::TopologyParams tp;
    tp.latas = 1;
    tp.servers_per_lata = 1;
    topo = std::make_unique<net::Topology>(engine, tp);
    node = std::make_unique<core::Node>(engine, cfg, 0, topo->server_nic(0), *db,
                                        db->total_data_pages(), &clock, rngs);
    stats = &node->stats();

    NodeEnv env;
    env.engine = &engine;
    env.node_id = 0;
    env.num_nodes = 1;
    env.db = db.get();
    env.fusion = &node->fusion();
    env.versions = &node->versions();
    env.log = &node->log_manager();
    env.proc = &node->processor();
    env.stats = stats;
    env.pl = core::PathLengths{};
    env.global_clock = &clock;
    env.rng = &rng;
    env.lock_retry_delay = sim::milliseconds(0.3) * cfg.scale;
    env.alive = &alive;
    exec = std::make_unique<TxnExecutor>(std::move(env));
  }

  bool execute(const TxnInput& input) {
    bool result = false;
    node->processor().thread_activated();
    sim::spawn([](MiniNode& m, TxnInput input, bool& out) -> sim::Task<void> {
      out = co_await m.exec->execute(input, 1);
      m.node->processor().thread_deactivated();
    }(*this, input, result));
    engine.run();
    return result;
  }

  /// Rows the op touched, or -1 when it aborted.
  int execute(const YcsbOp& op) {
    int rows = 0;
    node->processor().thread_activated();
    sim::spawn([](MiniNode& m, YcsbOp op, int& out) -> sim::Task<void> {
      out = co_await m.exec->execute(op, 1);
      m.node->processor().thread_deactivated();
    }(*this, op, rows));
    engine.run();
    return rows;
  }

  TxnInput new_order_input(std::int64_t w = 1, std::int64_t d = 1) {
    TxnInput in;
    in.type = TxnType::kNewOrder;
    in.w = w;
    in.d = d;
    in.c = 3;
    for (int i = 0; i < 5; ++i) in.lines.push_back({10 + i, w, 2});
    return in;
  }
};

TEST(Executor, NewOrderCommitAdvancesDistrictAndInsertsRows) {
  MiniNode m;
  const auto before = m.db->district.find(db::key_wd(1, 1))->next_o_id;
  ASSERT_TRUE(m.execute(m.new_order_input()));
  const auto after = m.db->district.find(db::key_wd(1, 1))->next_o_id;
  EXPECT_EQ(after, before + 1);
  EXPECT_NE(m.db->order.find(db::key_wdo(1, 1, before)), nullptr);
  EXPECT_NE(m.db->new_order.find(db::key_wdo(1, 1, before)), nullptr);
  for (int ol = 1; ol <= 5; ++ol) {
    EXPECT_NE(m.db->order_line.find(db::key_wdool(1, 1, before, ol)), nullptr);
  }
  EXPECT_EQ(m.stats->txns_committed.count(), 1u);
  EXPECT_EQ(m.stats->new_orders_committed.count(), 1u);
}

TEST(Executor, SpecRollbackLeavesNoTrace) {
  MiniNode m;
  const auto before = m.db->district.find(db::key_wd(1, 1))->next_o_id;
  TxnInput in = m.new_order_input();
  in.rollback = true;
  EXPECT_FALSE(m.execute(in));
  EXPECT_EQ(m.db->district.find(db::key_wd(1, 1))->next_o_id, before);
  EXPECT_EQ(m.db->order.find(db::key_wdo(1, 1, before)), nullptr);
  EXPECT_EQ(m.stats->txns_aborted.count(), 1u);
  EXPECT_EQ(m.stats->txns_committed.count(), 0u);
}

TEST(Executor, PaymentMovesMoney) {
  MiniNode m;
  TxnInput in;
  in.type = TxnType::kPayment;
  in.w = 2;
  in.d = 3;
  in.c = 7;
  in.c_w = 2;
  in.c_d = 3;
  in.amount = 123.0;
  const double wh_before = m.db->warehouse.find(db::key_w(2))->ytd;
  const double bal_before = m.db->customer.find(db::key_wdc(2, 3, 7))->balance;
  ASSERT_TRUE(m.execute(in));
  EXPECT_DOUBLE_EQ(m.db->warehouse.find(db::key_w(2))->ytd, wh_before + 123.0);
  EXPECT_DOUBLE_EQ(m.db->customer.find(db::key_wdc(2, 3, 7))->balance,
                   bal_before - 123.0);
  EXPECT_EQ(m.db->history.size(), 1u);
}

TEST(Executor, OrderStatusTakesNoLocks) {
  MiniNode m;
  TxnInput in;
  in.type = TxnType::kOrderStatus;
  in.w = 1;
  in.d = 1;
  in.c = 5;
  ASSERT_TRUE(m.execute(in));
  // MVCC: reads acquire no global locks at all.
  EXPECT_EQ(m.stats->lock_acquisitions.count(), 0u);
}

TEST(Executor, DeliveryClearsNewOrders) {
  MiniNode m;
  TxnInput in;
  in.type = TxnType::kDelivery;
  in.w = 1;
  const auto pending_before = m.db->new_order.size();
  ASSERT_TRUE(m.execute(in));
  // One oldest order per district (10 districts) delivered.
  EXPECT_LT(m.db->new_order.size(), pending_before);
  EXPECT_GE(m.db->new_order.size(), pending_before - 10);
}

TEST(Executor, StockLevelCommitsReadOnly) {
  MiniNode m;
  TxnInput in;
  in.type = TxnType::kStockLevel;
  in.w = 1;
  in.d = 2;
  in.threshold = 15;
  ASSERT_TRUE(m.execute(in));
  EXPECT_EQ(m.stats->lock_acquisitions.count(), 0u);
  EXPECT_GT(m.stats->buffer_hits.count() + m.stats->buffer_misses.count(), 50u);
}

TEST(Executor, ConflictingWriterWaitsForLockRelease) {
  MiniNode m;
  // Foreign transaction holds the district-1 row lock.
  const db::PageId dpage = m.db->district.data_page_of_key(db::key_wd(1, 1));
  const int sub = m.db->district.subpage_of_key(db::key_wd(1, 1));
  bool granted = false;
  sim::spawn([](MiniNode& m, db::PageId page, int sub, bool& g) -> sim::Task<void> {
    g = co_await m.node->fusion().lock(page, sub, /*txn=*/9999, /*wait=*/false);
  }(m, dpage, sub, granted));
  m.engine.run();
  ASSERT_TRUE(granted);

  // The new-order must block in phase 2 until the foreign lock releases.
  bool committed = false;
  m.node->processor().thread_activated();
  sim::spawn([](MiniNode& m, TxnInput in, bool& out) -> sim::Task<void> {
    out = co_await m.exec->execute(in, 1);
    m.node->processor().thread_deactivated();
  }(m, m.new_order_input(), committed));
  m.engine.run_until(m.engine.now() + 5.0);
  EXPECT_FALSE(committed);
  EXPECT_GE(m.stats->lock_waits.count() + m.stats->lock_failures.count(), 1u);

  sim::spawn([](MiniNode& m, db::PageId page, int sub) -> sim::Task<void> {
    co_await m.node->fusion().lock_release(page, sub, 9999);
  }(m, dpage, sub));
  m.engine.run();
  EXPECT_TRUE(committed);
  EXPECT_GT(m.stats->lock_wait_time.mean(), 0.0);
}

// --- YCSB keyed ops ----------------------------------------------------------

YcsbOp ycsb_op(YcsbOpType type, std::int64_t key, int scan_len = 1) {
  return YcsbOp{.type = type, .key = key, .scan_len = scan_len};
}

TEST(Executor, YcsbUpdateTakesOneLockAndMakesOneVersion) {
  MiniNode m("ycsb-a");
  auto& table = *m.db->ycsb;
  const db::Key k = db::key_ycsb(42);
  const db::PageId page = table.data_page_of_key(k);
  const int sub = table.subpage_of_key(k);
  const db::Timestamp snapshot = m.clock;
  ASSERT_EQ(m.execute(ycsb_op(YcsbOpType::kUpdate, 42)), 1);
  EXPECT_EQ(m.stats->lock_acquisitions.count(), 1u);
  // A reader at the old snapshot now skips exactly the new version.
  EXPECT_EQ(m.node->versions().chain_hops(page, sub, snapshot), 1);
  EXPECT_EQ(table.find(k)->writes, 1u);
  // The first update released its lock at commit: the second does not wait.
  ASSERT_EQ(m.execute(ycsb_op(YcsbOpType::kUpdate, 42)), 1);
  EXPECT_EQ(m.stats->lock_acquisitions.count(), 2u);
  EXPECT_EQ(m.stats->lock_waits.count(), 0u);
  EXPECT_EQ(table.find(k)->writes, 2u);
  EXPECT_EQ(m.stats->txns_committed.count(), 2u);
}

TEST(Executor, YcsbReadModifyWriteReturnsTwoRowsUnderOneLock) {
  MiniNode m("ycsb-f");
  EXPECT_EQ(m.execute(ycsb_op(YcsbOpType::kRmw, 7)), 2);
  EXPECT_EQ(m.stats->lock_acquisitions.count(), 1u);
  EXPECT_EQ(m.db->ycsb->find(db::key_ycsb(7))->writes, 1u);
  EXPECT_EQ(m.stats->txns_committed.count(), 1u);
}

TEST(Executor, YcsbInsertsMintNodeKeysWithoutLocks) {
  MiniNode m("ycsb-d");
  const auto rows_before = m.db->ycsb->size();
  EXPECT_EQ(m.execute(ycsb_op(YcsbOpType::kInsert, 0)), 1);
  EXPECT_EQ(m.execute(ycsb_op(YcsbOpType::kInsert, 0)), 1);
  // Keys are minted server-side in this node's insert region, in order.
  EXPECT_NE(m.db->ycsb->find(db::ycsb_insert_key(0, 1)), nullptr);
  EXPECT_NE(m.db->ycsb->find(db::ycsb_insert_key(0, 2)), nullptr);
  EXPECT_EQ(m.db->ycsb->size(), rows_before + 2);
  EXPECT_EQ(m.stats->lock_acquisitions.count(), 0u);
  EXPECT_EQ(m.stats->txns_committed.count(), 2u);
}

TEST(Executor, YcsbReadsAndScansTakeNoLocks) {
  MiniNode m("ycsb-e");
  EXPECT_EQ(m.execute(ycsb_op(YcsbOpType::kRead, 5)), 1);
  EXPECT_EQ(m.execute(ycsb_op(YcsbOpType::kScan, 100, 10)), 10);
  // Scans stop at the end of the loaded keyspace.
  EXPECT_EQ(m.execute(ycsb_op(YcsbOpType::kScan, m.cfg.ycsb_records - 3, 50)),
            3);
  EXPECT_EQ(m.stats->lock_acquisitions.count(), 0u);
  EXPECT_EQ(m.stats->txns_committed.count(), 3u);
}

TEST(Executor, YcsbDeadNodeAbortsWithoutEffects) {
  MiniNode m("ycsb-a");
  const auto rows_before = m.db->ycsb->size();
  m.alive = false;
  EXPECT_EQ(m.execute(ycsb_op(YcsbOpType::kUpdate, 42)), -1);
  EXPECT_EQ(m.execute(ycsb_op(YcsbOpType::kInsert, 0)), -1);
  EXPECT_EQ(m.db->ycsb->find(db::key_ycsb(42))->writes, 0u);
  EXPECT_EQ(m.db->ycsb->size(), rows_before);
  EXPECT_EQ(m.clock, 1u);  // no commit timestamp taken
  EXPECT_EQ(m.stats->lock_acquisitions.count(), 0u);
  EXPECT_EQ(m.stats->txns_aborted.count(), 2u);
  EXPECT_EQ(m.stats->txns_committed.count(), 0u);
}

TEST(Executor, YcsbUpdateWaitsForForeignLock) {
  MiniNode m("ycsb-a");
  auto& table = *m.db->ycsb;
  const db::Key k = db::key_ycsb(42);
  const db::PageId page = table.data_page_of_key(k);
  const int sub = table.subpage_of_key(k);
  bool granted = false;
  sim::spawn([](MiniNode& m, db::PageId page, int sub, bool& g) -> sim::Task<void> {
    g = co_await m.node->fusion().lock(page, sub, /*txn=*/9999, /*wait=*/false);
  }(m, page, sub, granted));
  m.engine.run();
  ASSERT_TRUE(granted);

  int rows = 0;
  m.node->processor().thread_activated();
  sim::spawn([](MiniNode& m, int& out) -> sim::Task<void> {
    out = co_await m.exec->execute(ycsb_op(YcsbOpType::kUpdate, 42), 1);
    m.node->processor().thread_deactivated();
  }(m, rows));
  m.engine.run_until(m.engine.now() + 5.0);
  EXPECT_EQ(rows, 0);
  EXPECT_EQ(table.find(k)->writes, 0u);

  sim::spawn([](MiniNode& m, db::PageId page, int sub) -> sim::Task<void> {
    co_await m.node->fusion().lock_release(page, sub, 9999);
  }(m, page, sub));
  m.engine.run();
  EXPECT_EQ(rows, 1);
  EXPECT_EQ(table.find(k)->writes, 1u);
  EXPECT_EQ(m.stats->lock_waits.count(), 1u);
  EXPECT_EQ(m.stats->lock_failures.count(), 0u);
  EXPECT_EQ(m.stats->txns_committed.count(), 1u);
}

}  // namespace
}  // namespace dclue::workload
