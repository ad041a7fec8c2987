#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/flat_map.hpp"

namespace dclue::sim {
namespace {

TEST(FlatMap, InsertFindErase) {
  FlatMap<std::uint64_t, int> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(7), m.end());

  auto [it, inserted] = m.try_emplace(7, 70);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(it->value, 70);
  EXPECT_EQ(m.size(), 1u);

  auto [it2, inserted2] = m.try_emplace(7, 99);
  EXPECT_FALSE(inserted2);  // unordered_map::try_emplace: no overwrite
  EXPECT_EQ(it2->value, 70);

  m[7] = 71;
  EXPECT_EQ(m.find(7)->value, 71);
  EXPECT_TRUE(m.contains(7));

  EXPECT_EQ(m.erase(7), 1u);
  EXPECT_EQ(m.erase(7), 0u);
  EXPECT_FALSE(m.contains(7));
  EXPECT_TRUE(m.empty());
}

TEST(FlatMap, GrowsAndKeepsAllEntries) {
  FlatMap<std::uint64_t, std::uint64_t> m;
  constexpr std::uint64_t kN = 10000;
  for (std::uint64_t i = 0; i < kN; ++i) m.try_emplace(i * 977, i);
  EXPECT_EQ(m.size(), kN);
  for (std::uint64_t i = 0; i < kN; ++i) {
    auto it = m.find(i * 977);
    ASSERT_NE(it, m.end()) << i;
    EXPECT_EQ(it->value, i);
  }
  EXPECT_FALSE(m.contains(977 * kN));
}

TEST(FlatMap, TombstoneReuseKeepsCapacityStable) {
  FlatMap<std::uint64_t, int> m;
  for (std::uint64_t i = 0; i < 64; ++i) m.try_emplace(i, 0);
  const std::size_t cap = m.capacity();
  // Steady single-key churn (the lock-table pattern: acquire inserts,
  // release erases) must neither grow the table nor lose entries.
  for (int round = 0; round < 100000; ++round) {
    m.try_emplace(1000, round);
    EXPECT_EQ(m.erase(1000), 1u);
  }
  EXPECT_EQ(m.capacity(), cap);
  EXPECT_EQ(m.size(), 64u);
}

TEST(FlatMap, ChurnAgainstUnorderedMapReference) {
  FlatMap<std::uint64_t, int> m;
  std::unordered_map<std::uint64_t, int> ref;
  std::uint64_t rng = 12345;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (int i = 0; i < 200000; ++i) {
    const std::uint64_t key = next() % 512;
    switch (next() % 3) {
      case 0: {
        const int v = static_cast<int>(next() % 1000);
        m.try_emplace(key, v);
        ref.try_emplace(key, v);
        break;
      }
      case 1: {
        EXPECT_EQ(m.erase(key), ref.erase(key));
        break;
      }
      default: {
        auto it = m.find(key);
        auto rit = ref.find(key);
        ASSERT_EQ(it == m.end(), rit == ref.end()) << key;
        if (rit != ref.end()) {
          EXPECT_EQ(it->value, rit->second);
        }
      }
    }
    ASSERT_EQ(m.size(), ref.size());
  }
}

TEST(FlatMap, IterationVisitsEveryElementOnce) {
  FlatMap<std::uint64_t, int> m;
  for (std::uint64_t i = 0; i < 300; ++i) m.try_emplace(i * 31, 1);
  std::set<std::uint64_t> seen;
  for (const auto& slot : m) EXPECT_TRUE(seen.insert(slot.key).second);
  EXPECT_EQ(seen.size(), 300u);
}

TEST(FlatMap, EraseDuringIterationVisitsSurvivorsExactlyOnce) {
  // The purge_if / invalidate_if / gc pattern: walk the table erasing some
  // entries via erase(iterator); every survivor must be visited exactly once
  // and every condemned entry must be gone afterwards.
  FlatMap<std::uint64_t, int> m;
  for (std::uint64_t i = 0; i < 1000; ++i) m.try_emplace(i, 0);
  std::set<std::uint64_t> visited;
  for (auto it = m.begin(); it != m.end();) {
    EXPECT_TRUE(visited.insert(it->key).second);
    if (it->key % 3 == 0) {
      it = m.erase(it);
    } else {
      ++it;
    }
  }
  EXPECT_EQ(visited.size(), 1000u);
  EXPECT_EQ(m.size(), 666u);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(m.contains(i), i % 3 != 0) << i;
  }
}

/// Every key hashes to group 0, so keys fill the groups in insertion order.
struct OneGroupHash {
  std::uint64_t operator()(std::uint64_t) const { return 0; }
};

TEST(FlatMap, InPlaceTombstoneFlushKeepsCapacity) {
  // An insert at the load cap with few live keys flushes the tombstones in
  // place instead of growing.
  FlatMap<std::uint64_t, int, OneGroupHash> m;
  for (std::uint64_t k = 0; k < 28; ++k) m.try_emplace(k, 0);
  ASSERT_EQ(m.capacity(), 32u);
  // Group 0 is packed, so erasing its 16 keys leaves 16 tombstones and the
  // map at its 7/8 cap of non-empty slots with 12 live keys.
  for (std::uint64_t k = 0; k < 16; ++k) ASSERT_EQ(m.erase(k), 1u);
  m.try_emplace(100, 0);
  EXPECT_EQ(m.capacity(), 32u);
  EXPECT_EQ(m.size(), 13u);
}

TEST(FlatMap, NonTrivialMappedTypeSurvivesRehash) {
  FlatMap<std::uint64_t, std::string> m;
  for (std::uint64_t i = 0; i < 500; ++i) {
    m.try_emplace(i, std::string(20 + i % 30, 'x'));
  }
  for (std::uint64_t i = 0; i < 500; ++i) {
    auto it = m.find(i);
    ASSERT_NE(it, m.end());
    EXPECT_EQ(it->value.size(), 20 + i % 30);
  }
}

TEST(FlatMap, ProbeStatsAdvance) {
  FlatMap<std::uint64_t, int> m;
  for (std::uint64_t i = 0; i < 100; ++i) m.try_emplace(i, 0);
  const auto before = m.probe_stats();
  (void)m.contains(5);
  (void)m.contains(999);
  const auto after = m.probe_stats();
  EXPECT_EQ(after.ops, before.ops + 2);
  EXPECT_GE(after.steps, before.steps + 2);
  // Low load factor keeps mean probe length near 1.
  EXPECT_LT(static_cast<double>(after.steps) / static_cast<double>(after.ops),
            2.0);
}

TEST(FlatMap, MoveTransfersStorage) {
  FlatMap<std::uint64_t, int> a;
  for (std::uint64_t i = 0; i < 100; ++i) a.try_emplace(i, static_cast<int>(i));
  FlatMap<std::uint64_t, int> b(std::move(a));
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move): reset contract
  EXPECT_EQ(b.find(42)->value, 42);
  a = std::move(b);
  EXPECT_EQ(a.size(), 100u);
  EXPECT_EQ(a.find(42)->value, 42);
}

}  // namespace
}  // namespace dclue::sim
