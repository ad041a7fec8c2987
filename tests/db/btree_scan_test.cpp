/// Range-scan battery for the B+-tree: cross-leaf iteration from a
/// lower_bound routed down the inner nodes, empty ranges, scans spanning
/// erased and unlinked leaves, and scan-vs-MVCC visibility (the YCSB scan
/// op walks a key range and charges chain_hops per row — see
/// workload/ycsb.cpp).
/// A small fanout (4) forces multi-level trees and many leaves at tiny key
/// counts so every scan genuinely crosses leaf boundaries.

#include "db/btree.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <vector>

#include "db/mvcc.hpp"
#include "db/table.hpp"
#include "db/tpcc_schema.hpp"

namespace dclue::db {
namespace {

using SmallTree = BTree<std::uint64_t, int, 4>;

/// Keys in [lo, hi), in iteration order.
template <typename Tree>
std::vector<std::uint64_t> scan(const Tree& t, std::uint64_t lo,
                                std::uint64_t hi) {
  std::vector<std::uint64_t> out;
  for (auto it = t.lower_bound(lo); it.valid() && it.key() < hi; it.next()) {
    out.push_back(it.key());
  }
  return out;
}

TEST(BTreeScan, CrossLeafScanVisitsEveryKeyInOrder) {
  SmallTree t;
  for (std::uint64_t k = 0; k < 200; k += 2) t.insert(k, static_cast<int>(k));
  ASSERT_GT(t.leaf_count(), 10u);  // the scan really crosses leaves
  ASSERT_GT(t.height(), 1);
  const std::vector<std::uint64_t> got = scan(t, 51, 151);
  ASSERT_EQ(got.size(), 50u);  // 52, 54, ..., 150
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], 52 + 2 * i);
  }
  // Full scan from a key below the minimum covers everything, ordered.
  EXPECT_EQ(scan(t, 0, 1000).size(), t.size());
}

TEST(BTreeScan, EmptyRanges) {
  SmallTree t;
  // Empty tree: no valid start anywhere.
  EXPECT_FALSE(t.lower_bound(0).valid());
  EXPECT_TRUE(scan(t, 0, 100).empty());
  for (std::uint64_t k = 0; k < 100; k += 10) t.insert(k, 1);
  // Range falling between two adjacent keys holds nothing.
  EXPECT_TRUE(scan(t, 11, 20).empty());
  // Start past the last key: lower_bound is invalid, scan is empty.
  EXPECT_FALSE(t.lower_bound(91).valid());
  EXPECT_TRUE(scan(t, 91, 1000).empty());
  // Degenerate [k, k) range is empty even when k exists.
  EXPECT_TRUE(scan(t, 50, 50).empty());
}

TEST(BTreeScan, ScanSpansErasedLeaves) {
  SmallTree t;
  for (std::uint64_t k = 0; k < 1000; ++k) t.insert(k, static_cast<int>(k));
  const std::size_t leaves_before = t.leaf_count();
  // Erase a contiguous mid block: with fanout 4 this empties and unlinks
  // hundreds of leaves, so the scan must hop the retired span via the
  // repaired leaf chain, never revisiting recycled nodes.
  for (std::uint64_t k = 300; k < 700; ++k) EXPECT_TRUE(t.erase(k));
  EXPECT_LT(t.leaf_count(), leaves_before);
  EXPECT_GT(t.pooled_free_nodes(), 0u);
  const std::vector<std::uint64_t> got = scan(t, 250, 750);
  ASSERT_EQ(got.size(), 100u);
  for (std::size_t i = 0; i < 50; ++i) EXPECT_EQ(got[i], 250 + i);
  for (std::size_t i = 50; i < 100; ++i) EXPECT_EQ(got[i], 700 + (i - 50));
  // lower_bound into the erased gap lands on its successor (the descent
  // routes into the neighbour that absorbed the dead range).
  auto it = t.lower_bound(500);
  ASSERT_TRUE(it.valid());
  EXPECT_EQ(it.key(), 700u);
}

TEST(BTreeScan, ScanAfterErasingPrefixAndDrain) {
  SmallTree t;
  for (std::uint64_t k = 0; k < 300; ++k) t.insert(k, 1);
  // Erasing the prefix retires the first leaves; begin() must follow.
  for (std::uint64_t k = 0; k < 100; ++k) EXPECT_TRUE(t.erase(k));
  auto it = t.begin();
  ASSERT_TRUE(it.valid());
  EXPECT_EQ(it.key(), 100u);
  EXPECT_EQ(scan(t, 0, 1000).size(), 200u);
  // Drain completely: iteration ends, the tree is reusable.
  for (std::uint64_t k = 100; k < 300; ++k) EXPECT_TRUE(t.erase(k));
  EXPECT_EQ(t.size(), 0u);
  EXPECT_FALSE(t.begin().valid());
  EXPECT_TRUE(scan(t, 0, 1000).empty());
  // Refill through recycled nodes; scans see only the new keys.
  for (std::uint64_t k = 5; k < 50; k += 5) t.insert(k, 2);
  const std::vector<std::uint64_t> got = scan(t, 0, 100);
  ASSERT_EQ(got.size(), 9u);
  EXPECT_EQ(got.front(), 5u);
  EXPECT_EQ(got.back(), 45u);
}

TEST(BTreeScan, RoutingMatchesReferenceUnderChurn) {
  // Interleaved random inserts and erases, then every lower_bound answer is
  // checked against std::map — exercising the inner-node routing after both
  // leaf splits and leaf retirements.
  SmallTree t;
  std::map<std::uint64_t, int> ref;
  std::mt19937_64 rng(2026);
  for (int i = 0; i < 20'000; ++i) {
    const std::uint64_t k = rng() % 2'000;
    if ((rng() & 3) != 0) {  // 75% inserts
      t.insert(k, i);
      ref[k] = i;
    } else {
      EXPECT_EQ(t.erase(k), ref.erase(k) > 0);
    }
  }
  ASSERT_EQ(t.size(), ref.size());
  for (std::uint64_t probe = 0; probe < 2'100; probe += 7) {
    auto it = t.lower_bound(probe);
    auto rit = ref.lower_bound(probe);
    if (rit == ref.end()) {
      EXPECT_FALSE(it.valid()) << "probe " << probe;
    } else {
      ASSERT_TRUE(it.valid()) << "probe " << probe;
      EXPECT_EQ(it.key(), rit->first) << "probe " << probe;
      EXPECT_EQ(it.value(), rit->second) << "probe " << probe;
    }
  }
}

TEST(BTreeScan, ScanVsMvccVisibility) {
  // A YCSB scan reads each row in the range at the reader's snapshot,
  // paying chain_hops per (page, subpage) to skip newer versions. Commit
  // two versions of one scanned key and check the hop counts a scan at
  // snapshots before/between/after the commits would observe.
  BufferCache cache(64);
  VersionManager versions(/*overflow_capacity=*/1 << 20, cache);
  Table<YcsbRow> table(TpccSpecs::ycsb);
  for (std::int64_t k = 0; k < 64; ++k) table.insert(key_ycsb(k), YcsbRow{});

  const Key hot = key_ycsb(7);
  const auto id = table.find_id(hot);
  ASSERT_TRUE(id.has_value());
  const PageId page = table.page_for(hot, *id);
  const int subpage = table.subpage_for(hot, *id);
  versions.create_version(page, subpage, /*ts=*/10, 100);
  versions.create_version(page, subpage, /*ts=*/20, 100);
  EXPECT_EQ(versions.current_version(page, subpage), 20u);

  // Scan keys [0, 16) at three snapshots; only key 7's subpage has a chain.
  for (const auto& [snapshot, hot_hops] :
       std::vector<std::pair<Timestamp, int>>{{5, 2}, {15, 1}, {25, 0}}) {
    for (auto it = table.lower_bound(key_ycsb(0));
         it.valid() && it.key() < key_ycsb(16); it.next()) {
      const PageId p = table.page_for(it.key(), it.value());
      const int sp = table.subpage_for(it.key(), it.value());
      const int hops = versions.chain_hops(p, sp, snapshot);
      EXPECT_EQ(hops, it.key() == hot ? hot_hops : 0)
          << "key " << it.key() << " snapshot " << snapshot;
    }
  }
}

}  // namespace
}  // namespace dclue::db
