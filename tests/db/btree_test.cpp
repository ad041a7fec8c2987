#include "db/btree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <vector>

#include "db/tpcc_schema.hpp"

namespace dclue::db {
namespace {

TEST(BTree, EmptyTree) {
  BTree<std::uint64_t, int> t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
  EXPECT_FALSE(t.find(42).has_value());
  EXPECT_FALSE(t.begin().valid());
}

TEST(BTree, InsertAndFind) {
  BTree<std::uint64_t, int> t;
  t.insert(5, 50);
  t.insert(1, 10);
  t.insert(9, 90);
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(*t.find(5), 50);
  EXPECT_EQ(*t.find(1), 10);
  EXPECT_EQ(*t.find(9), 90);
  EXPECT_FALSE(t.find(7).has_value());
}

TEST(BTree, OverwriteKeepsSize) {
  BTree<std::uint64_t, int> t;
  t.insert(5, 50);
  t.insert(5, 55);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(*t.find(5), 55);
}

TEST(BTree, ManySequentialInsertionsSplitCorrectly) {
  BTree<std::uint64_t, int> t;
  const int n = 10'000;
  for (int i = 0; i < n; ++i) t.insert(static_cast<std::uint64_t>(i), i * 2);
  EXPECT_EQ(t.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(*t.find(static_cast<std::uint64_t>(i)), i * 2) << i;
  }
  EXPECT_GT(t.height(), 1);
}

TEST(BTree, RandomInsertionsMatchReferenceMap) {
  BTree<std::uint64_t, int> t;
  std::map<std::uint64_t, int> ref;
  std::mt19937_64 rng(7);
  for (int i = 0; i < 20'000; ++i) {
    std::uint64_t k = rng() % 50'000;
    t.insert(k, i);
    ref[k] = i;
  }
  EXPECT_EQ(t.size(), ref.size());
  for (const auto& [k, v] : ref) {
    ASSERT_EQ(*t.find(k), v) << k;
  }
}

TEST(BTree, OrderedIterationFromBegin) {
  BTree<std::uint64_t, int> t;
  std::mt19937_64 rng(3);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 5'000; ++i) {
    std::uint64_t k = rng();
    keys.push_back(k);
    t.insert(k, 0);
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::size_t idx = 0;
  for (auto it = t.begin(); it.valid(); it.next()) {
    ASSERT_LT(idx, keys.size());
    ASSERT_EQ(it.key(), keys[idx]);
    ++idx;
  }
  EXPECT_EQ(idx, keys.size());
}

TEST(BTree, LowerBoundFindsFirstNotLess) {
  BTree<std::uint64_t, int> t;
  for (std::uint64_t k = 0; k < 1000; k += 10) t.insert(k, static_cast<int>(k));
  auto it = t.lower_bound(95);
  ASSERT_TRUE(it.valid());
  EXPECT_EQ(it.key(), 100u);
  it = t.lower_bound(100);
  EXPECT_EQ(it.key(), 100u);
  it = t.lower_bound(991);
  EXPECT_FALSE(it.valid());
}

TEST(BTree, EraseRemovesAndIterationStaysSorted) {
  BTree<std::uint64_t, int> t;
  for (std::uint64_t k = 0; k < 2000; ++k) t.insert(k, 1);
  for (std::uint64_t k = 0; k < 2000; k += 2) EXPECT_TRUE(t.erase(k));
  EXPECT_FALSE(t.erase(0));  // already gone
  EXPECT_EQ(t.size(), 1000u);
  std::uint64_t expect = 1;
  for (auto it = t.begin(); it.valid(); it.next()) {
    ASSERT_EQ(it.key(), expect);
    expect += 2;
  }
}

TEST(BTree, EraseThenReinsert) {
  BTree<std::uint64_t, int> t;
  for (std::uint64_t k = 0; k < 500; ++k) t.insert(k, 1);
  for (std::uint64_t k = 0; k < 500; ++k) t.erase(k);
  EXPECT_EQ(t.size(), 0u);
  for (std::uint64_t k = 0; k < 500; ++k) t.insert(k, 2);
  EXPECT_EQ(t.size(), 500u);
  EXPECT_EQ(*t.find(250), 2);
}

TEST(BTree, HeightGrowsLogarithmically) {
  BTree<std::uint64_t, int, 8> t;  // small fanout to force depth
  for (std::uint64_t k = 0; k < 4096; ++k) t.insert(k, 0);
  EXPECT_GE(t.height(), 4);
  EXPECT_LE(t.height(), 8);
}

TEST(BTree, LeafCountConsistentWithSize) {
  BTree<std::uint64_t, int> t;
  for (std::uint64_t k = 0; k < 10'000; ++k) t.insert(k, 0);
  std::size_t leaves = t.leaf_count();
  EXPECT_GE(leaves, 10'000u / 64);
  EXPECT_LE(leaves, 10'000u / 16);
}

TEST(BTree, AscendingLoadShapeAtProductionFanout) {
  // Table population loads keys in ascending order, through the append path
  // on all but one insert per leaf. The high-end append split packs each
  // leaf with Fanout - 1 keys: 1,000,000 keys fill 15,873 leaves.
  BTree<std::uint64_t, std::uint64_t> t;
  for (std::uint64_t k = 0; k < 1'000'000; ++k) t.insert(k * 3, k);
  EXPECT_EQ(t.size(), 1'000'000u);
  EXPECT_EQ(t.leaf_count(), 15'873u);
  EXPECT_EQ(t.height(), 4);
  EXPECT_EQ(*t.find(999'999 * 3), 999'999u);
  EXPECT_FALSE(t.find(999'999 * 3 + 1).has_value());
}

TEST(BTree, CachedCountersMatchStructureUnderChurn) {
  // height() / leaf_count() are maintained incrementally; verify them
  // against a from-scratch walk via the iterator and known shape bounds
  // while the tree grows and drains.
  BTree<std::uint64_t, int, 8> t;
  EXPECT_EQ(t.height(), 1);
  EXPECT_EQ(t.leaf_count(), 1u);
  for (std::uint64_t k = 0; k < 4096; ++k) t.insert(k, 0);
  EXPECT_GE(t.height(), 4);
  EXPECT_GE(t.leaf_count(), 4096u / 8);
  EXPECT_LE(t.leaf_count(), 4096u / 2);
  const int peak_height = t.height();
  const std::size_t peak_leaves = t.leaf_count();
  for (std::uint64_t k = 0; k < 4096; ++k) EXPECT_TRUE(t.erase(k));
  EXPECT_TRUE(t.empty());
  // A fully drained tree collapses back to a single (possibly empty) leaf.
  EXPECT_LT(t.height(), peak_height);
  EXPECT_LT(t.leaf_count(), peak_leaves);
  EXPECT_LE(t.leaf_count(), 1u);
  // Refill: recycled pool nodes behave like fresh ones.
  for (std::uint64_t k = 0; k < 4096; ++k) t.insert(k, 1);
  EXPECT_EQ(t.size(), 4096u);
  EXPECT_EQ(*t.find(4095), 1);
}

TEST(BTree, EraseUnlinksEmptyLeavesFromChain) {
  BTree<std::uint64_t, int, 8> t;
  for (std::uint64_t k = 0; k < 1024; ++k) t.insert(k, 0);
  const std::size_t leaves_full = t.leaf_count();
  // Drain the low half: its leaves must leave the chain (iteration no
  // longer walks them and leaf_count reflects live structure).
  for (std::uint64_t k = 0; k < 512; ++k) EXPECT_TRUE(t.erase(k));
  EXPECT_LT(t.leaf_count(), leaves_full);
  auto it = t.begin();
  ASSERT_TRUE(it.valid());
  EXPECT_EQ(it.key(), 512u);  // first live key reached without skipping
  std::size_t walked = 0;
  for (; it.valid(); it.next()) ++walked;
  EXPECT_EQ(walked, 512u);
  EXPECT_GT(t.pooled_free_nodes(), 0u);  // retired leaves went to the pool
}

TEST(BTree, NewOrderShapeMatchesReferenceAtProductionFanout) {
  // TPC-C's new_order index at the fanout every table uses. Each district
  // appends ascending order ids (the high-end append split, in leaves and
  // inner nodes) and Delivery erases its oldest order, so emptied head
  // leaves retire, the first one from slot 0 of its parent. Districts
  // interleave at different rates: the slow ones drain completely and then
  // refill into whichever neighbour absorbed their dead key range.
  constexpr int kWarehouses = 3;
  constexpr int kDistricts = 10;
  constexpr int kRanges = kWarehouses * kDistricts;
  BTree<std::uint64_t, int> t;
  std::map<std::uint64_t, int> ref;
  std::vector<std::int64_t> head(kRanges, 2101);  // oldest undelivered order
  std::vector<std::int64_t> next(kRanges, 3001);  // next order id to assign
  const auto key = [](int r, std::int64_t o) {
    return key_wdo(r / kDistricts + 1, r % kDistricts + 1, o);
  };
  // Populated like TpccDatabase::populate: orders 2101..3000 undelivered.
  for (int r = 0; r < kRanges; ++r) {
    for (std::int64_t o = head[r]; o < next[r]; ++o) {
      t.insert(key(r, o), static_cast<int>(o));
      ref[key(r, o)] = static_cast<int>(o);
    }
  }
  ASSERT_GE(t.height(), 3);  // inner nodes split too

  std::mt19937_64 rng(12);
  int refills = 0;  // new orders for a district with none outstanding
  for (int round = 0; round < 40; ++round) {
    for (int step = 0; step < 3'000; ++step) {
      const int r = static_cast<int>(rng() % kRanges);
      const int new_order_pct = 30 + 4 * (r % kDistricts);  // 30..66 %
      if (static_cast<int>(rng() % 100) < new_order_pct) {
        if (head[r] == next[r]) ++refills;
        const std::int64_t o = next[r]++;
        t.insert(key(r, o), static_cast<int>(o));
        ref[key(r, o)] = static_cast<int>(o);
      } else if (head[r] < next[r]) {
        const std::int64_t o = head[r]++;
        ASSERT_TRUE(t.erase(key(r, o))) << "round " << round;
        ref.erase(key(r, o));
      }
    }
    ASSERT_EQ(t.size(), ref.size()) << "round " << round;
    for (const auto& [k, v] : ref) {
      const auto got = t.find(k);
      ASSERT_TRUE(got.has_value()) << "round " << round << " key " << k;
      ASSERT_EQ(*got, v);
    }
    for (int r = 0; r < kRanges; ++r) {
      EXPECT_FALSE(t.contains(key(r, head[r] - 1)));  // delivered
      EXPECT_FALSE(t.contains(key(r, next[r])));      // not yet ordered
      // Delivery's probe for the district's oldest new order.
      const std::uint64_t probe = key(r, 0);
      const auto it = t.lower_bound(probe);
      const auto rit = ref.lower_bound(probe);
      if (rit == ref.end()) {
        EXPECT_FALSE(it.valid()) << "round " << round << " district " << r;
      } else {
        ASSERT_TRUE(it.valid()) << "round " << round << " district " << r;
        EXPECT_EQ(it.key(), rit->first) << "round " << round << " district " << r;
        EXPECT_EQ(it.value(), rit->second);
      }
    }
  }
  EXPECT_GT(refills, 0);
  EXPECT_GT(t.pooled_free_nodes(), 0u);
}

/// Property sweep: random interleavings of insert/erase stay consistent with
/// a reference map.
class BTreeFuzz : public ::testing::TestWithParam<int> {};

TEST_P(BTreeFuzz, MatchesReferenceUnderMixedWorkload) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()));
  BTree<std::uint64_t, int, 8> t;
  std::map<std::uint64_t, int> ref;
  for (int i = 0; i < 5'000; ++i) {
    std::uint64_t k = rng() % 600;
    if (rng() % 3 == 0) {
      EXPECT_EQ(t.erase(k), ref.erase(k) > 0);
    } else {
      t.insert(k, i);
      ref[k] = i;
    }
  }
  EXPECT_EQ(t.size(), ref.size());
  auto it = t.begin();
  for (const auto& [k, v] : ref) {
    ASSERT_TRUE(it.valid());
    ASSERT_EQ(it.key(), k);
    ASSERT_EQ(it.value(), v);
    it.next();
  }
  EXPECT_FALSE(it.valid());
}

/// Append-heavy interleavings: most inserts land above the current maximum
/// (the append path), erases often take the maximum (retiring the last
/// leaf), and the tree is drained completely once, then appended to again.
TEST_P(BTreeFuzz, AppendHeavyMatchesReference) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) + 100);
  BTree<std::uint64_t, int, 8> t;
  std::map<std::uint64_t, int> ref;
  std::uint64_t top = 0;  ///< appends go above this
  const auto check = [&](int step) {
    ASSERT_EQ(t.size(), ref.size()) << step;
    auto it = t.begin();
    for (const auto& [k, v] : ref) {
      ASSERT_TRUE(it.valid()) << step;
      ASSERT_EQ(it.key(), k) << step;
      ASSERT_EQ(it.value(), v) << step;
      it.next();
    }
    ASSERT_FALSE(it.valid()) << step;
    for (int probe = 0; probe < 16; ++probe) {
      const std::uint64_t k = rng() % (top + 8);
      const auto got = t.find(k);
      const auto rit = ref.find(k);
      ASSERT_EQ(got.has_value(), rit != ref.end()) << step << " key " << k;
      if (got) {
        ASSERT_EQ(*got, rit->second) << step << " key " << k;
      }
      const auto lb = t.lower_bound(k);
      const auto rlb = ref.lower_bound(k);
      ASSERT_EQ(lb.valid(), rlb != ref.end()) << step << " key " << k;
      if (lb.valid()) {
        ASSERT_EQ(lb.key(), rlb->first) << step << " key " << k;
      }
    }
  };
  for (int step = 0; step < 6'000; ++step) {
    if (step == 3'000) {  // full drain, then the appends below refill it
      for (auto it = ref.begin(); it != ref.end(); it = ref.erase(it)) {
        ASSERT_TRUE(t.erase(it->first));
      }
      ASSERT_TRUE(t.empty());
    }
    const std::uint64_t r = rng() % 10;
    if (r < 6) {  // append above the maximum
      top += 1 + rng() % 3;
      t.insert(top, step);
      ref[top] = step;
    } else if (r < 7 && top > 0) {  // insert or overwrite below it
      const std::uint64_t k = rng() % top;
      t.insert(k, step);
      ref[k] = step;
    } else if (!ref.empty()) {  // erase the maximum, or any key
      const std::uint64_t k = r < 9 ? ref.rbegin()->first : rng() % (top + 1);
      ASSERT_EQ(t.erase(k), ref.erase(k) > 0) << step;
    }
    if (step % 500 == 0) check(step);
  }
  check(6'000);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreeFuzz, ::testing::Range(1, 9));

}  // namespace
}  // namespace dclue::db
