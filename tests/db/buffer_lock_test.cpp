#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <vector>

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
  EXPECT_FALSE(c.contains(pg(1), PageMode::kExclusive));
  c.insert(pg(1), PageMode::kExclusive);
  EXPECT_TRUE(c.contains(pg(1), PageMode::kExclusive));
  EXPECT_EQ(c.size(), 1u);
  c.insert(pg(1), PageMode::kShared);  // a shared hit never downgrades
  EXPECT_TRUE(c.contains(pg(1), PageMode::kExclusive));
  // Invalidation drops the bit with the entry: a shared reinsert is shared.
  EXPECT_TRUE(c.invalidate(pg(1)));
  c.insert(pg(1), PageMode::kShared);
  EXPECT_TRUE(c.contains(pg(1), PageMode::kShared));
  EXPECT_FALSE(c.contains(pg(1), PageMode::kExclusive));
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

TEST(BufferCache, RehashKeepsEvictionOnTheRightPage) {
  // Restored capacity lets residency outgrow the cache's construction size,
  // so the map rehashes under inserts, and every eviction must still drop
  // the coldest page and only it.
  constexpr std::size_t kCap = 64 + 1000;
  constexpr std::size_t kInserts = 3000;
  BufferCache c(64);
  c.restore_capacity(1000);
  for (std::size_t i = 0; i < kInserts; ++i) {
    for (PageId victim : c.insert(pg(i), PageMode::kShared)) {
      EXPECT_FALSE(c.resident(victim)) << i;
    }
  }
  EXPECT_EQ(c.size(), kCap);
  for (std::size_t i = 0; i < kInserts; ++i) {
    EXPECT_EQ(c.resident(pg(i)), i >= kInserts - kCap) << i;
  }
}

TEST(BufferCache, StealAndInvalidateIfKeepSurvivorsModesAndOrder) {
  BufferCache c(10);
  auto exclusive = [](std::uint64_t i) { return i % 3 == 0; };
  for (std::uint64_t i = 0; i < 10; ++i) {
    c.insert(pg(i), exclusive(i) ? PageMode::kExclusive : PageMode::kShared);
  }
  c.touch(pg(2));  // recency, coldest first: 0 1 3 4 5 6 7 8 9 2
  auto stolen = c.steal_for_versions(2);
  ASSERT_EQ(stolen.size(), 2u);
  EXPECT_EQ(stolen[0], pg(0));
  EXPECT_EQ(stolen[1], pg(1));
  EXPECT_EQ(c.invalidate_if([](PageId p) { return p == pg(4) || p == pg(8); }),
            2u);
  const std::vector<std::uint64_t> survivors = {3, 5, 6, 7, 9, 2};
  ASSERT_EQ(c.size(), survivors.size());
  for (std::uint64_t i : survivors) {
    EXPECT_TRUE(c.contains(pg(i), PageMode::kShared)) << i;
    EXPECT_EQ(c.contains(pg(i), PageMode::kExclusive), exclusive(i)) << i;
  }
  auto rest = c.steal_for_versions(survivors.size());
  ASSERT_EQ(rest.size(), survivors.size());
  for (std::size_t k = 0; k < survivors.size(); ++k) {
    EXPECT_EQ(rest[k], pg(survivors[k])) << k;
  }
}

TEST(BufferCache, ReserveSizesTheMapAsGrowthWouldWithoutRehashing) {
  constexpr std::size_t kPages = 1000;
  BufferCache reserved(100'000);
  reserved.reserve(kPages);
  const std::size_t slots = reserved.map_slots();
  EXPECT_LE(kPages * 16, slots * 7);  // at most 7/16 full, insert's rule
  BufferCache grown(100'000);
  for (std::size_t i = 0; i < kPages; ++i) {
    reserved.insert(pg(i), PageMode::kShared);
    ASSERT_EQ(reserved.map_slots(), slots) << i;
    grown.insert(pg(i), PageMode::kShared);
  }
  EXPECT_EQ(grown.map_slots(), slots);  // no larger than growth makes it
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
  BufferCache cache(16);
  VersionManager vm(sim::megabytes(1), cache);
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
  BufferCache cache(16);
  for (int i = 0; i < 16; ++i) cache.insert(pg(i), PageMode::kShared);
  VersionManager vm(256, cache);  // tiny overflow area
  for (int i = 0; i < 10; ++i) vm.create_version(pg(100), i, 10 + i, 128);
  EXPECT_GT(vm.cache_pages_stolen(), 0u);
  EXPECT_LT(cache.capacity(), 16u);
}

TEST(VersionManager, GcReclaimsOldVersions) {
  BufferCache cache(16);
  VersionManager vm(sim::megabytes(1), cache);
  PageId p = pg(1);
  for (int i = 1; i <= 5; ++i) vm.create_version(p, 0, static_cast<Timestamp>(i * 10), 128);
  sim::Bytes freed = vm.gc(100, 128);
  EXPECT_GT(freed, 0);
  // The newest version must survive.
  EXPECT_EQ(vm.current_version(p, 0), 50u);
}

/// The version store as it was before GC kept a list of multi-version
/// chains: every sweep walks every chain.
struct FullScanVersions {
  sim::Bytes capacity;
  BufferCache& cache;
  std::map<LockName, std::vector<Timestamp>> chains;
  sim::Bytes in_use = 0;
  std::uint64_t stolen = 0;
  std::uint64_t returned = 0;

  void create_version(PageId page, int subpage, Timestamp ts, sim::Bytes bytes) {
    chains[lock_name(page, subpage)].push_back(ts);
    in_use += bytes;
    while (in_use > capacity) {
      if (cache.steal_for_versions(1).empty()) break;
      capacity += kPageBytes;
      ++stolen;
    }
  }
  sim::Bytes gc(Timestamp min_active, sim::Bytes bytes_per_version) {
    sim::Bytes freed = 0;
    for (auto& [name, chain] : chains) {
      while (chain.size() > 1 && chain[0] < min_active && chain[1] <= min_active) {
        chain.erase(chain.begin());
        freed += bytes_per_version;
      }
    }
    in_use -= std::min(freed, in_use);
    while (stolen > returned && capacity > kPageBytes &&
           in_use < capacity - 2 * kPageBytes) {
      capacity -= kPageBytes;
      cache.restore_capacity(1);
      ++returned;
    }
    return freed;
  }
  [[nodiscard]] int chain_hops(LockName name, Timestamp snapshot) const {
    const auto& chain = chains.at(name);
    return static_cast<int>(std::count_if(
        chain.begin(), chain.end(), [snapshot](Timestamp t) { return t > snapshot; }));
  }
};

TEST(VersionManager, GcOverMultiVersionChainsMatchesAFullScan) {
  constexpr std::uint64_t kPages = 24;
  constexpr int kSubpages = 4;
  constexpr sim::Bytes kVersionBytes = 512;
  BufferCache cache(256);
  BufferCache ref_cache(256);
  for (std::uint64_t i = 0; i < 256; ++i) {
    cache.insert(pg(1000 + i), PageMode::kShared);
    ref_cache.insert(pg(1000 + i), PageMode::kShared);
  }
  VersionManager vm(4 * kPageBytes, cache);
  FullScanVersions ref{4 * kPageBytes, ref_cache, {}};
  std::mt19937_64 rng(20240607);
  Timestamp ts = 1;
  std::uint64_t returned_before = 0;
  bool returned_some = false;
  for (int op = 0; op < 20'000; ++op) {
    const PageId page = pg(rng() % kPages);
    const int sub = static_cast<int>(rng() % kSubpages);
    vm.create_version(page, sub, ts, kVersionBytes);
    ref.create_version(page, sub, ts, kVersionBytes);
    ++ts;
    const Timestamp snapshot = ts - rng() % 200;
    ASSERT_EQ(vm.chain_hops(page, sub, snapshot),
              ref.chain_hops(lock_name(page, sub), snapshot)) << op;
    if (rng() % 64 != 0) continue;
    const Timestamp min_active = ts - rng() % 300;
    ASSERT_EQ(vm.gc(min_active, kVersionBytes), ref.gc(min_active, kVersionBytes))
        << op;
    ASSERT_EQ(vm.capacity(), ref.capacity) << op;
    ASSERT_EQ(vm.cache_pages_stolen(), ref.stolen) << op;
    ASSERT_EQ(cache.capacity(), ref_cache.capacity()) << op;
    returned_some = returned_some || ref.returned > returned_before;
    returned_before = ref.returned;
    for (std::uint64_t p = 0; p < kPages; ++p) {
      for (int s = 0; s < kSubpages; ++s) {
        const LockName name = lock_name(pg(p), s);
        if (ref.chains.count(name) == 0) {
          EXPECT_EQ(vm.current_version(pg(p), s), 0u);
          continue;
        }
        EXPECT_EQ(vm.current_version(pg(p), s), ref.chains[name].back());
        EXPECT_EQ(vm.chain_hops(pg(p), s, min_active),
                  ref.chain_hops(name, min_active));
        EXPECT_EQ(vm.chain_hops(pg(p), s, 0), ref.chain_hops(name, 0));
      }
    }
  }
  // The sequence exercised both directions of the overflow area.
  EXPECT_GT(ref.stolen, 0u);
  EXPECT_TRUE(returned_some);
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
