#include <gtest/gtest.h>

#include "db/buffer_cache.hpp"
#include "db/lock_manager.hpp"
#include "db/log_manager.hpp"
#include "db/mvcc.hpp"
#include "sim/task.hpp"

namespace dclue::db {
namespace {

PageId pg(std::uint64_t n) { return make_page_id(TableId::kStock, false, n); }

TEST(BufferCache, MissThenHit) {
  BufferCache c(4);
  EXPECT_FALSE(c.contains(pg(1), PageMode::kShared));
  c.insert(pg(1), PageMode::kShared);
  EXPECT_TRUE(c.contains(pg(1), PageMode::kShared));
  EXPECT_FALSE(c.contains(pg(1), PageMode::kExclusive));
  c.upgrade(pg(1));
  EXPECT_TRUE(c.contains(pg(1), PageMode::kExclusive));
}

TEST(BufferCache, LruEviction) {
  BufferCache c(2);
  c.insert(pg(1), PageMode::kShared);
  c.insert(pg(2), PageMode::kShared);
  c.touch(pg(1));  // 2 becomes coldest
  auto evicted = c.insert(pg(3), PageMode::kShared);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], pg(2));
  EXPECT_TRUE(c.resident(pg(1)));
  EXPECT_TRUE(c.resident(pg(3)));
}

TEST(BufferCache, InvalidateRemovesPage) {
  BufferCache c(4);
  c.insert(pg(1), PageMode::kExclusive);
  EXPECT_TRUE(c.invalidate(pg(1)));
  EXPECT_FALSE(c.resident(pg(1)));
  EXPECT_FALSE(c.invalidate(pg(1)));
}

TEST(BufferCache, StealForVersionsShrinksCapacity) {
  BufferCache c(4);
  for (int i = 0; i < 4; ++i) c.insert(pg(i), PageMode::kShared);
  auto stolen = c.steal_for_versions(2);
  EXPECT_EQ(stolen.size(), 2u);
  EXPECT_EQ(c.capacity(), 2u);
  c.restore_capacity(2);
  EXPECT_EQ(c.capacity(), 4u);
}

TEST(BufferCache, ReinsertExistingUpgradesMode) {
  BufferCache c(4);
  c.insert(pg(1), PageMode::kShared);
  c.insert(pg(1), PageMode::kExclusive);
  EXPECT_TRUE(c.contains(pg(1), PageMode::kExclusive));
  EXPECT_EQ(c.size(), 1u);
}

TEST(BufferCache, EvictionCostBoundedWithPinnedColdFront) {
  // Each insert into a full cache evicts exactly one page, the coldest, and
  // examines exactly one entry to find it: eviction cost is constant per
  // insert, never a scan of the recency list.
  constexpr std::size_t kCap = 256;
  BufferCache c(kCap);
  for (std::size_t i = 0; i < kCap; ++i) c.insert(pg(i), PageMode::kShared);
  const auto scans_before = c.evict_scans().count();
  constexpr std::size_t kInserts = 1000;
  for (std::size_t i = 0; i < kInserts; ++i) {
    auto evicted = c.insert(pg(10000 + i), PageMode::kShared);
    ASSERT_EQ(evicted.size(), 1u) << i;
    // Recency order: the 256 initial pages first, then the inserts in turn.
    const std::size_t coldest = i < kCap ? i : 10000 + i - kCap;
    EXPECT_EQ(evicted[0], pg(coldest)) << i;
  }
  EXPECT_EQ(c.evict_scans().count() - scans_before, kInserts);
  EXPECT_EQ(c.size(), kCap);
}

// ---------------------------------------------------------------------------

TEST(LockManager, TryAcquireConflictsAndReentrancy) {
  sim::Engine e;
  LockManager lm(e);
  EXPECT_TRUE(lm.try_acquire(100, 1));
  EXPECT_TRUE(lm.try_acquire(100, 1));   // reentrant
  EXPECT_FALSE(lm.try_acquire(100, 2));  // conflict
  EXPECT_TRUE(lm.try_acquire(200, 2));   // different lock
  lm.release(100, 1);
  EXPECT_TRUE(lm.try_acquire(100, 2));
}

TEST(LockManager, WaiterGrantedOnRelease) {
  sim::Engine e;
  LockManager lm(e);
  ASSERT_TRUE(lm.try_acquire(7, 1));
  bool granted = false;
  sim::spawn([](LockManager& lm, bool& g) -> sim::Task<void> {
    g = co_await lm.acquire_wait(7, 2, 0.0);
  }(lm, granted));
  e.after(1.0, [&lm] { lm.release(7, 1); });
  e.run();
  EXPECT_TRUE(granted);
  EXPECT_FALSE(lm.try_acquire(7, 3));  // txn 2 now holds it
}

TEST(LockManager, WaitersGrantedFifo) {
  sim::Engine e;
  LockManager lm(e);
  ASSERT_TRUE(lm.try_acquire(7, 1));
  std::vector<int> order;
  for (int i = 2; i <= 4; ++i) {
    sim::spawn([](LockManager& lm, std::vector<int>& order, int id) -> sim::Task<void> {
      if (co_await lm.acquire_wait(7, static_cast<TxnToken>(id), 0.0)) {
        order.push_back(id);
        lm.release(7, static_cast<TxnToken>(id));
      }
    }(lm, order, i));
  }
  e.after(1.0, [&lm] { lm.release(7, 1); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{2, 3, 4}));
}

TEST(LockManager, WaitTimesOut) {
  sim::Engine e;
  LockManager lm(e);
  ASSERT_TRUE(lm.try_acquire(7, 1));
  bool granted = true;
  sim::Time when = 0.0;
  sim::spawn([](sim::Engine& e, LockManager& lm, bool& g, sim::Time& t) -> sim::Task<void> {
    g = co_await lm.acquire_wait(7, 2, 0.5);
    t = e.now();
  }(e, lm, granted, when));
  e.run();
  EXPECT_FALSE(granted);
  EXPECT_NEAR(when, 0.5, 1e-9);
  // Holder release must skip the abandoned waiter and free the lock.
  lm.release(7, 1);
  EXPECT_TRUE(lm.try_acquire(7, 3));
}

// ---------------------------------------------------------------------------

TEST(VersionManager, ChainHopsCountNewerVersions) {
  sim::Engine e;
  BufferCache cache(16);
  VersionManager vm(e, sim::megabytes(1), cache);
  PageId p = pg(1);
  vm.create_version(p, 0, 10, 128);
  vm.create_version(p, 0, 20, 128);
  vm.create_version(p, 0, 30, 128);
  EXPECT_EQ(vm.chain_hops(p, 0, 30), 0);  // sees newest
  EXPECT_EQ(vm.chain_hops(p, 0, 25), 1);
  EXPECT_EQ(vm.chain_hops(p, 0, 5), 3);
  EXPECT_EQ(vm.current_version(p, 0), 30u);
  EXPECT_EQ(vm.chain_hops(pg(2), 0, 100), 0);  // untouched subpage
}

TEST(VersionManager, OverflowStealsCachePages) {
  sim::Engine e;
  BufferCache cache(16);
  for (int i = 0; i < 16; ++i) cache.insert(pg(i), PageMode::kShared);
  VersionManager vm(e, 256, cache);  // tiny overflow area
  for (int i = 0; i < 10; ++i) vm.create_version(pg(100), i, 10 + i, 128);
  EXPECT_GT(vm.cache_pages_stolen(), 0u);
  EXPECT_LT(cache.capacity(), 16u);
}

TEST(VersionManager, GcReclaimsOldVersions) {
  sim::Engine e;
  BufferCache cache(16);
  VersionManager vm(e, sim::megabytes(1), cache);
  PageId p = pg(1);
  for (int i = 1; i <= 5; ++i) vm.create_version(p, 0, static_cast<Timestamp>(i * 10), 128);
  sim::Bytes freed = vm.gc(100, 128);
  EXPECT_GT(freed, 0);
  // The newest version must survive.
  EXPECT_EQ(vm.current_version(p, 0), 50u);
}

// ---------------------------------------------------------------------------

TEST(LogManager, FlushWritesToDisk) {
  sim::Engine e;
  storage::Disk disk(e, "log", storage::DiskParams{});
  LogManager lm(e, &disk);
  lm.append(4096);
  bool flushed = false;
  sim::spawn([](LogManager& lm, bool& ok) -> sim::Task<void> {
    co_await lm.flush();
    ok = true;
  }(lm, flushed));
  e.run();
  EXPECT_TRUE(flushed);
  EXPECT_EQ(disk.ops_completed(), 1u);
  EXPECT_EQ(lm.bytes_logged(), 4096);
}

TEST(LogManager, GroupCommitCoalescesConcurrentFlushes) {
  sim::Engine e;
  storage::Disk disk(e, "log", storage::DiskParams{});
  LogManager lm(e, &disk);
  int done = 0;
  for (int i = 0; i < 10; ++i) {
    lm.append(512);
    sim::spawn([](LogManager& lm, int& done) -> sim::Task<void> {
      co_await lm.flush();
      ++done;
    }(lm, done));
  }
  e.run();
  EXPECT_EQ(done, 10);
  // Far fewer physical writes than flush() calls.
  EXPECT_LE(disk.ops_completed(), 3u);
  EXPECT_EQ(lm.bytes_logged(), 5120);
}

TEST(LogManager, FlushWithNothingPendingReturnsImmediately) {
  sim::Engine e;
  storage::Disk disk(e, "log", storage::DiskParams{});
  LogManager lm(e, &disk);
  bool done = false;
  sim::spawn([](LogManager& lm, bool& ok) -> sim::Task<void> {
    co_await lm.flush();
    ok = true;
  }(lm, done));
  EXPECT_TRUE(done);  // no events needed
  EXPECT_EQ(disk.ops_completed(), 0u);
}

TEST(LogManager, RemoteFlushDelegates) {
  sim::Engine e;
  LogManager lm(e, nullptr);
  sim::Bytes remote_bytes = 0;
  lm.set_remote_flush([&](sim::Bytes n) -> sim::Task<void> {
    remote_bytes += n;
    co_return;
  });
  lm.append(2048);
  bool done = false;
  sim::spawn([](LogManager& lm, bool& ok) -> sim::Task<void> {
    co_await lm.flush();
    ok = true;
  }(lm, done));
  e.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(remote_bytes, 2048);
}

}  // namespace
}  // namespace dclue::db
