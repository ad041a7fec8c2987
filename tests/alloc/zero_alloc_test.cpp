/// Zero-allocation contracts of the steady-state hot paths. This binary
/// replaces the global operator new with one that counts calls; each test
/// drives one path until its working set is complete, then requires exactly
/// 0 heap allocations over a window of further operations:
///
///   - the TCP datapath under a bulk transfer (NIC deliver -> TCP rx -> app
///     handler, plus the ack path), with the engine's events per segment,
///   - a MsgChannel message stream over each net::Transport,
///   - the DB tier: a keyed lookup/insert/evict mix, contended lock waits,
///     buffer-cache touch and insert-hit, uncontended lock acquire/release,
///     and a buffer cache that allocates nothing before its first page,
///   - the YCSB keyed path: key chooser, op generator and resident-row access.
///
/// Every op sequence is seeded, so each count is exact and machine-invariant.
/// Tracing is off (no tracer installed), so the probes' disabled path is
/// covered too.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include "cluster/directory.hpp"
#include "core/config.hpp"
#include "db/btree.hpp"
#include "db/buffer_cache.hpp"
#include "db/lock_manager.hpp"
#include "db/mvcc.hpp"
#include "db/tpcc_schema.hpp"
#include "net/rdma.hpp"
#include "net/tcp.hpp"
#include "net/topology.hpp"
#include "net/transport.hpp"
#include "proto/channel.hpp"
#include "sim/key_chooser.hpp"
#include "sim/rng.hpp"
#include "sim/task.hpp"
#include "workload/ycsb.hpp"

namespace {
std::uint64_t g_allocs = 0;  ///< operator new calls since the binary started
}  // namespace

void* operator new(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dclue {
namespace {

/// Deterministic xorshift stream for the DB-tier op sequences.
struct Xorshift {
  std::uint64_t s = 0x2545f4914f6cdd1dULL;
  std::uint64_t next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
};

/// A counted window over a run of operations: it opens at op `first` and
/// closes at op `last`, snapshotting the allocation count at both ends.
struct Window {
  std::uint64_t first = 0;
  std::uint64_t last = 0;
  std::uint64_t allocs_at_open = 0;
  std::uint64_t allocs_at_close = 0;
  bool opened = false;
  bool closed = false;

  /// Called with the running count \p op after each completed op (bytes
  /// received, for the bulk transfer).
  void note(std::uint64_t op) {
    if (!opened && op >= first) {
      opened = true;
      allocs_at_open = g_allocs;
    } else if (opened && !closed && op >= last) {
      closed = true;
      allocs_at_close = g_allocs;
    }
  }
  [[nodiscard]] std::uint64_t allocs() const {
    return allocs_at_close - allocs_at_open;
  }
};

// ---------------------------------------------------------------------------
// Fabric: two servers in one LATA, protocol CPU costs zeroed.
// ---------------------------------------------------------------------------

/// The selected stack on two servers, behind net::Transport exactly like the
/// cluster wiring.
struct TwoHosts {
  sim::Engine engine;
  std::unique_ptr<net::Topology> topo;
  std::unique_ptr<net::TcpStack> tcp_a, tcp_b;
  std::unique_ptr<net::RdmaStack> rdma_a, rdma_b;
  net::Transport* a = nullptr;  ///< the selected stack on each host
  net::Transport* b = nullptr;

  explicit TwoHosts(net::TransportKind kind) {
    net::TopologyParams tp;
    tp.servers_per_lata = 2;
    topo = std::make_unique<net::Topology>(engine, tp);
    if (kind == net::TransportKind::kTcp) {
      tcp_a = std::make_unique<net::TcpStack>(engine, topo->server_nic(0),
                                              net::TcpParams{},
                                              net::TcpCostModel{}, nullptr);
      tcp_b = std::make_unique<net::TcpStack>(engine, topo->server_nic(1),
                                              net::TcpParams{},
                                              net::TcpCostModel{}, nullptr);
      a = tcp_a.get();
      b = tcp_b.get();
    } else {
      rdma_a = std::make_unique<net::RdmaStack>(engine, topo->server_nic(0),
                                                net::RdmaParams{});
      rdma_b = std::make_unique<net::RdmaStack>(engine, topo->server_nic(1),
                                                net::RdmaParams{});
      a = rdma_a.get();
      b = rdma_b.get();
    }
  }
};

std::uint64_t segments(const TwoHosts& h) {
  return h.tcp_a->segments_received() + h.tcp_b->segments_received();
}

TEST(ZeroAlloc, TcpBulkTransferSteadyState) {
  // One 16 MB transfer; the window spans 25 %..95 % of the bytes received.
  constexpr sim::Bytes kTotal = 16'000'000;
  TwoHosts h(net::TransportKind::kTcp);
  auto& listener = h.tcp_b->listen(5000);
  sim::Bytes received = 0;
  Window win{kTotal / 4, kTotal - kTotal / 20};
  std::uint64_t seg_open = 0, seg_close = 0;
  sim::spawn([](TwoHosts& h, net::Listener& l, sim::Bytes& got, Window& win,
                std::uint64_t& seg_open,
                std::uint64_t& seg_close) -> sim::Task<void> {
    auto conn = co_await l.accept();
    conn->set_rx_handler([&](sim::Bytes n) {
      got += n;
      const bool was_open = win.opened, was_closed = win.closed;
      win.note(static_cast<std::uint64_t>(got));
      if (win.opened && !was_open) seg_open = segments(h);
      if (win.closed && !was_closed) seg_close = segments(h);
    });
  }(h, listener, received, win, seg_open, seg_close));
  auto conn = h.tcp_a->connect(h.tcp_b->address(), 5000);
  conn->send(kTotal);
  h.engine.run();

  ASSERT_EQ(received, kTotal);
  ASSERT_TRUE(win.closed);
  EXPECT_GT(seg_close, seg_open);
  EXPECT_EQ(win.allocs(), 0u) << "over " << seg_close - seg_open << " segments";
  // Event structure: 5.333 engine events per delivered segment, with the
  // 10 % headroom the figures' event order has always been held to.
  const double events_per_segment =
      static_cast<double>(h.engine.events_executed()) /
      static_cast<double>(segments(h));
  EXPECT_LE(events_per_segment, 5.333 * 1.10);
}

class ZeroAllocStream : public ::testing::TestWithParam<net::TransportKind> {};

TEST_P(ZeroAllocStream, MsgChannelStreamSteadyState) {
  // 20,000 control-sized messages on one channel; the window spans messages
  // 5,000..19,000.
  constexpr int kMsgs = 20'000;
  constexpr sim::Bytes kMsgBytes = 600;  ///< a control message (paper table 1)
  TwoHosts h(GetParam());
  auto& listener = h.b->listen(5000);
  int received = 0;
  Window win{kMsgs / 4, kMsgs - kMsgs / 20};
  sim::spawn([](net::Listener& l, int& received, Window& win) -> sim::Task<void> {
    auto conn = co_await l.accept();
    auto ch = std::make_shared<proto::MsgChannel>(conn);
    for (;;) {
      proto::Message m = co_await ch->inbox().receive();
      if (m.type != 1) break;  // closed/reset sentinel
      win.note(static_cast<std::uint64_t>(++received));
    }
    conn->close();
  }(listener, received, win));
  auto conn = h.a->connect(h.topo->server_nic(1).address(), 5000);
  auto client = std::make_shared<proto::MsgChannel>(conn);
  for (int i = 0; i < kMsgs; ++i) {
    proto::Message m;
    m.type = 1;
    m.bytes = kMsgBytes;
    client->send(std::move(m));
  }
  conn->close();  // half-close: the marker follows the last queued byte
  h.engine.run();

  ASSERT_EQ(received, kMsgs);
  ASSERT_TRUE(win.closed);
  EXPECT_EQ(win.allocs(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    BothTransports, ZeroAllocStream,
    ::testing::Values(net::TransportKind::kTcp, net::TransportKind::kRdma),
    [](const ::testing::TestParamInfo<net::TransportKind>& info) {
      return std::string(net::transport_kind_name(info.param));
    });

// ---------------------------------------------------------------------------
// DB tier
// ---------------------------------------------------------------------------

db::PageId pg(std::uint64_t n) {
  return db::make_page_id(db::TableId::kStock, false, n);
}

TEST(ZeroAlloc, DbTierKeyedMix) {
  // The structures every transaction touches, weighted like the TPC-C mix:
  // page fetch + directory traffic (30 %), insert-hit (10 %), MVCC version
  // churn (20 %) and keyed index reads with a residency touch (40 %). The
  // directory's flat map last grows at op 403,233, so the window opens at
  // op 500,000 and runs to the end.
  constexpr std::uint64_t kOps = 2'000'000;
  constexpr std::size_t kCachePages = 4096;
  constexpr std::uint64_t kPageSpan = 1 << 16;  ///< pages cycled through cache
  constexpr std::uint64_t kTreeKeys = 1 << 17;

  db::BufferCache cache(kCachePages);
  cluster::DirectoryService dir;
  db::VersionManager versions(sim::megabytes(64), cache);
  db::BTree<std::uint64_t, std::uint64_t> tree;
  for (std::uint64_t k = 0; k < kTreeKeys; ++k) tree.insert(k * 7, k);
  for (std::uint64_t p = 0; p < kCachePages; ++p) {
    cache.insert(pg(p), db::PageMode::kShared);
    dir.lookup(pg(p), 0, false);
  }

  Xorshift rng;
  std::uint64_t next_page = kCachePages;
  std::uint64_t sink = 0;
  db::Timestamp ts = 1;
  Window win{500'000, kOps};
  for (std::uint64_t i = 0; i < kOps; ++i) {
    const std::uint64_t r = rng.next();
    switch (r % 10) {
      case 0:
      case 1:
      case 2: {  // fetch a fresh page: evicts at capacity, informs directory
        const db::PageId page = pg(next_page++ % kPageSpan + kPageSpan);
        auto evicted = cache.insert(page, db::PageMode::kShared);
        dir.lookup(page, static_cast<int>(r >> 32) % 4, (r & 1) != 0);
        for (auto v : evicted) dir.evict(v, 0);
        break;
      }
      case 3: {  // insert-hit on a resident page
        const db::PageId page = pg(r % kCachePages);
        if (cache.resident(page)) {
          cache.insert(page, db::PageMode::kShared);
        } else {
          cache.touch(page);
        }
        break;
      }
      case 4:
      case 5: {  // MVCC version churn
        const db::PageId page = pg(r % 256);
        versions.create_version(page, static_cast<int>(r >> 40) % 4, ts++, 128);
        sink += static_cast<std::uint64_t>(
            versions.chain_hops(page, static_cast<int>(r >> 40) % 4, ts / 2));
        if ((ts & 0x3fff) == 0) versions.gc(ts - 64, 128);
        break;
      }
      default: {  // keyed lookup + residency touch (the transaction fast path)
        const std::uint64_t key = (r % kTreeKeys) * 7;
        if (auto v = tree.find(key)) sink += *v;
        cache.touch(pg(r % kCachePages));
        break;
      }
    }
    win.note(i + 1);
  }
  EXPECT_GT(sink, 0u);
  ASSERT_TRUE(win.closed);
  EXPECT_EQ(win.allocs(), 0u);
}

struct LockChurn {
  sim::Engine& engine;
  db::LockManager& locks;
  std::uint64_t target_ops;
  Window win;
  std::uint64_t ops = 0;
  std::uint64_t grants = 0;
  std::uint64_t timeouts = 0;
};

sim::Task<void> lock_txn(LockChurn& st, std::uint64_t seed, int lock_count) {
  Xorshift rng{seed * 0x9e3779b97f4a7c15ULL + 1};
  std::uint64_t round = 0;
  while (st.ops < st.target_ops) {
    // A fresh token per round: each round is its own transaction, so a lock
    // still held by an earlier round of the same coroutine really conflicts
    // instead of taking the reentrant fast path.
    const db::TxnToken tok = seed * 1'000'003 + ++round;
    const db::LockName name = rng.next() % static_cast<std::uint64_t>(lock_count);
    const bool granted =
        co_await st.locks.acquire_wait(name, tok, sim::microseconds(150.0));
    st.win.note(++st.ops);
    if (granted) {
      ++st.grants;
      // Release from a timer so the coroutine moves on without a hold gate.
      st.engine.after(sim::microseconds(50.0),
                      [&st, name, tok] { st.locks.release(name, tok); });
    } else {
      ++st.timeouts;
    }
  }
}

TEST(ZeroAlloc, ContendedLockWaitChurn) {
  // 64 transactions on 8 locks with a 150 us timeout: grants, abandons and
  // waiter-queue reuse all cycle. The window spans ops 50,000..190,000.
  constexpr std::uint64_t kOps = 200'000;
  sim::Engine engine;
  db::LockManager locks(engine);
  LockChurn st{engine, locks, kOps, Window{kOps / 4, kOps - kOps / 20}};
  for (std::uint64_t t = 0; t < 64; ++t) sim::spawn(lock_txn(st, t, 8));
  engine.run();

  ASSERT_GE(st.ops, kOps);
  EXPECT_GT(st.grants, 0u);
  EXPECT_GT(st.timeouts, 0u);
  ASSERT_TRUE(st.win.closed);
  EXPECT_EQ(st.win.allocs(), 0u);
}

TEST(ZeroAlloc, BufferCacheTouchAndInsertHit) {
  constexpr std::uint64_t kOps = 200'000;
  db::BufferCache cache(1024);
  for (std::uint64_t p = 0; p < 1024; ++p) cache.insert(pg(p), db::PageMode::kShared);
  Xorshift rng;
  const std::uint64_t before_touch = g_allocs;
  for (std::uint64_t i = 0; i < kOps; ++i) cache.touch(pg(rng.next() % 1024));
  EXPECT_EQ(g_allocs - before_touch, 0u) << "touch";
  const std::uint64_t before_insert = g_allocs;
  for (std::uint64_t i = 0; i < kOps; ++i) {
    cache.insert(pg(rng.next() % 1024), db::PageMode::kShared);
  }
  EXPECT_EQ(g_allocs - before_insert, 0u) << "insert-hit";
}

TEST(ZeroAlloc, BufferCacheSizedByResidency) {
  // A node's capacity is a share of the whole database; its map and slab
  // grow with the pages that become resident, so building a cache for
  // 16 M pages allocates nothing until the first insert.
  const std::uint64_t before = g_allocs;
  db::BufferCache cache(std::size_t{1} << 24);
  EXPECT_EQ(g_allocs - before, 0u);
  EXPECT_EQ(cache.capacity(), std::size_t{1} << 24);
}

TEST(ZeroAlloc, UncontendedLockAcquireRelease) {
  sim::Engine engine;
  db::LockManager locks(engine);
  Xorshift rng;
  auto acquire_release = [&locks, &rng] {
    const db::LockName name = rng.next() % 1024;
    if (locks.try_acquire(name, 1)) locks.release(name, 1);
  };
  // Warm: the lock table reaches its working-set footprint.
  for (int i = 0; i < 4096; ++i) acquire_release();
  const std::uint64_t before = g_allocs;
  for (int i = 0; i < 200'000; ++i) acquire_release();
  EXPECT_EQ(g_allocs - before, 0u);
}

// ---------------------------------------------------------------------------
// YCSB keyed path: 400,000 ops per probe, the first eighth warms.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kYcsbOps = 400'000;
constexpr std::uint64_t kYcsbWarm = kYcsbOps / 8;

TEST(ZeroAlloc, YcsbKeyChooserAndOpGenerator) {
  sim::RngFactory rngs(7);
  {  // steady-state zipfian draws: the per-arrival client cost
    sim::KeyChooser chooser(sim::KeyDist::kZipfian, 100'000, 0.99,
                            rngs.stream("ycsb-key", 0));
    std::int64_t sink = 0;
    for (std::uint64_t i = 0; i < kYcsbWarm; ++i) sink += chooser.next();
    const std::uint64_t before = g_allocs;
    for (std::uint64_t i = kYcsbWarm; i < kYcsbOps; ++i) sink += chooser.next();
    EXPECT_EQ(g_allocs - before, 0u) << "key chooser";
    EXPECT_GT(sink, 0);
  }
  {  // full op draws with an advancing clock, as YcsbFleet does per arrival
    core::ClusterConfig cfg;
    cfg.workload_spec = "ycsb-e";  // scans exercise the extra length draw
    cfg.ycsb_shift = 3;            // and the shift-offset path
    const workload::YcsbSpec spec = workload::make_ycsb_spec(cfg);
    workload::YcsbOpGenerator gen(spec, rngs.stream("ycsb-op", 0),
                                  rngs.stream("ycsb-key", 0));
    std::int64_t sink = 0;
    sim::Time now = 0.0;
    auto draw = [&] {
      now += 1e-4;
      const workload::YcsbOp op = gen.next(now);
      sink += op.key + op.scan_len;
    };
    for (std::uint64_t i = 0; i < kYcsbWarm; ++i) draw();
    const std::uint64_t before = g_allocs;
    for (std::uint64_t i = kYcsbWarm; i < kYcsbOps; ++i) draw();
    EXPECT_EQ(g_allocs - before, 0u) << "op generator";
    EXPECT_GT(sink, 0);
  }
}

TEST(ZeroAlloc, YcsbResidentRowPath) {
  // The per-key work a keyed op performs once its pages are resident:
  // index/data page derivation, row lookup, buffer residency touches and
  // MVCC chain traversal.
  constexpr std::int64_t kRecords = 20'000;
  db::TpccScale scale;
  scale.warehouses = 1;
  scale.customers_per_district = 10;
  scale.items = 50;
  db::TpccDatabase db(scale);
  sim::Rng pop(1);
  db.populate(pop);
  db.build_ycsb(kRecords);

  db::BufferCache cache(8192);
  db::VersionManager versions(sim::megabytes(16), cache);
  sim::RngFactory rngs(7);
  sim::KeyChooser chooser(sim::KeyDist::kZipfian, kRecords, 0.99,
                          rngs.stream("ycsb-key", 1));
  // Resident working set + a few versions on the hot pages, as after warmup.
  for (std::int64_t k = 0; k < kRecords; ++k) {
    const db::Key key = db::key_ycsb(k);
    cache.insert(db.ycsb->data_page_of_key(key), db::PageMode::kShared);
    cache.insert(db.ycsb->index_page_of(key), db::PageMode::kShared);
  }
  db::Timestamp ts = 1;
  for (std::int64_t k = 0; k < 512; ++k) {
    const db::Key key = db::key_ycsb(k);
    versions.create_version(db.ycsb->data_page_of_key(key),
                            db.ycsb->subpage_of_key(key), ++ts, 256);
  }

  std::uint64_t rows = 0, hops = 0;
  auto access = [&] {
    const db::Key key = db::key_ycsb(chooser.next());
    const db::PageId data = db.ycsb->data_page_of_key(key);
    cache.touch(db.ycsb->index_page_of(key));
    cache.touch(data);
    hops += static_cast<std::uint64_t>(
        versions.chain_hops(data, db.ycsb->subpage_of_key(key), ts / 2));
    if (db.ycsb->find(key) != nullptr) ++rows;
  };
  for (std::uint64_t i = 0; i < kYcsbWarm; ++i) access();
  const std::uint64_t before = g_allocs;
  for (std::uint64_t i = kYcsbWarm; i < kYcsbOps; ++i) access();
  EXPECT_EQ(g_allocs - before, 0u);
  EXPECT_EQ(rows, kYcsbOps);
  EXPECT_GT(hops, 0u);
}

}  // namespace
}  // namespace dclue
