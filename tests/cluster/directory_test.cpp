#include "cluster/directory.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace dclue::cluster {
namespace {

db::PageId pg(std::uint64_t n) {
  return db::make_page_id(db::TableId::kCustomer, false, n);
}

/// \p page's holders in record order. An exclusive lookup by a node that
/// holds nothing returns them all as its invalidation list, so this is the
/// last call a test makes on \p page.
std::vector<int> take_holders(DirectoryService& dir, db::PageId page) {
  constexpr int kOutsider = 1000;
  auto r = dir.lookup(page, kOutsider, true);
  return {r.invalidate.begin(), r.invalidate.end()};
}

/// Records nodes 0..count-1 as holders of \p page, in that order.
void record_holders(DirectoryService& dir, db::PageId page, int count) {
  for (int h = 0; h < count; ++h) dir.lookup(page, h, false);
}

TEST(Directory, FirstLookupHasNoSupplier) {
  DirectoryService dir;
  auto r = dir.lookup(pg(1), 0, false);
  EXPECT_FALSE(r.has_supplier);
  EXPECT_TRUE(r.invalidate.empty());
  EXPECT_EQ(dir.holder_count(pg(1)), 1);  // requester registered in-flight
}

TEST(Directory, SecondNodeIsDirectedToFirstHolder) {
  DirectoryService dir;
  dir.lookup(pg(1), 0, false);
  auto r = dir.lookup(pg(1), 1, false);
  EXPECT_TRUE(r.has_supplier);
  EXPECT_EQ(r.supplier, 0);
  EXPECT_EQ(dir.holder_count(pg(1)), 2);
}

TEST(Directory, RequesterIsNeverItsOwnSupplier) {
  DirectoryService dir;
  dir.lookup(pg(1), 0, false);
  auto r = dir.lookup(pg(1), 0, false);
  EXPECT_FALSE(r.has_supplier);
}

TEST(Directory, ExclusiveRequestInvalidatesOtherHolders) {
  DirectoryService dir;
  dir.lookup(pg(1), 0, false);
  dir.lookup(pg(1), 1, false);
  dir.lookup(pg(1), 2, false);
  auto r = dir.lookup(pg(1), 2, true);
  EXPECT_EQ(r.invalidate.size(), 2u);
  EXPECT_EQ(dir.holder_count(pg(1)), 1);  // only the new exclusive owner
}

TEST(Directory, ExclusiveOwnerIsPreferredSupplier) {
  DirectoryService dir;
  dir.lookup(pg(1), 0, true);  // 0 becomes exclusive owner
  auto r = dir.lookup(pg(1), 1, false);
  EXPECT_TRUE(r.has_supplier);
  EXPECT_EQ(r.supplier, 0);
}

TEST(Directory, SharedRequestDemotesExclusiveOwner) {
  DirectoryService dir;
  dir.lookup(pg(1), 0, true);
  dir.lookup(pg(1), 1, false);
  // A later exclusive request by a third node must invalidate both.
  auto r = dir.lookup(pg(1), 2, true);
  EXPECT_EQ(r.invalidate.size(), 2u);
}

TEST(Directory, EvictionRemovesHolderAndEmptyEntry) {
  DirectoryService dir;
  dir.lookup(pg(1), 0, false);
  dir.lookup(pg(1), 1, false);
  dir.evict(pg(1), 0);
  EXPECT_EQ(dir.holder_count(pg(1)), 1);
  dir.evict(pg(1), 1);
  EXPECT_EQ(dir.holder_count(pg(1)), 0);
  EXPECT_EQ(dir.entries(), 0u);
}

TEST(Directory, ConfirmIsIdempotent) {
  DirectoryService dir;
  dir.lookup(pg(1), 0, false);
  dir.confirm(pg(1), 0);
  dir.confirm(pg(1), 0);
  EXPECT_EQ(dir.holder_count(pg(1)), 1);
}

TEST(Directory, DistinctPagesAreIndependent) {
  DirectoryService dir;
  dir.lookup(pg(1), 0, false);
  auto r = dir.lookup(pg(2), 1, false);
  EXPECT_FALSE(r.has_supplier);
  EXPECT_EQ(dir.entries(), 2u);
}

TEST(Directory, TwelveHoldersKeepRecordOrder) {
  DirectoryService dir;
  record_holders(dir, pg(1), 12);
  EXPECT_EQ(dir.holder_count(pg(1)), 12);
  // The supplier is the first holder other than the requester.
  EXPECT_EQ(dir.lookup(pg(1), 5, false).supplier, 0);
  EXPECT_EQ(dir.lookup(pg(1), 0, false).supplier, 1);
  EXPECT_EQ(dir.holder_count(pg(1)), 12);  // both were holders already
  auto r = dir.lookup(pg(1), 4, true);
  EXPECT_EQ(std::vector<int>(r.invalidate.begin(), r.invalidate.end()),
            (std::vector<int>{0, 1, 2, 3, 5, 6, 7, 8, 9, 10, 11}));
  EXPECT_EQ(dir.holder_count(pg(1)), 1);
  EXPECT_EQ(dir.lookup(pg(1), 0, false).supplier, 4);
}

TEST(Directory, SpilledHoldersKeepOrderThroughEvictPurgeAndErase) {
  DirectoryService dir;
  record_holders(dir, pg(1), 12);
  for (int h = 11; h >= 0; --h) dir.lookup(pg(2), h, false);
  record_holders(dir, pg(3), 12);
  dir.evict(pg(1), 3);
  dir.evict(pg(1), 0);
  EXPECT_EQ(dir.purge_holder(7), 3u);
  // Evicting every holder erases the spilled entry.
  for (int h = 0; h < 12; ++h) dir.evict(pg(3), h);
  EXPECT_EQ(dir.holder_count(pg(3)), 0);
  EXPECT_EQ(dir.entries(), 2u);
  EXPECT_EQ(take_holders(dir, pg(1)),
            (std::vector<int>{1, 2, 4, 5, 6, 8, 9, 10, 11}));
  EXPECT_EQ(take_holders(dir, pg(2)),
            (std::vector<int>{11, 10, 9, 8, 6, 5, 4, 3, 2, 1, 0}));
  // A table with spilled entries clears to empty.
  record_holders(dir, pg(4), 12);
  dir.clear();
  EXPECT_EQ(dir.entries(), 0u);
  EXPECT_EQ(dir.holder_count(pg(4)), 0);
  record_holders(dir, pg(4), 3);
  EXPECT_EQ(take_holders(dir, pg(4)), (std::vector<int>{0, 1, 2}));
}

TEST(Directory, HoldersSurviveTwoGrowthsOfTheTable) {
  DirectoryService dir;
  record_holders(dir, pg(1), 3);   // inline
  record_holders(dir, pg(2), 10);  // spilled
  // The table starts at 16 slots, 14 usable; 40 pages grow it to 32 and 64.
  for (std::uint64_t p = 3; p <= 40; ++p) dir.confirm(pg(p), 0);
  EXPECT_EQ(dir.entries(), 40u);
  EXPECT_EQ(take_holders(dir, pg(1)), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(take_holders(dir, pg(2)),
            (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

}  // namespace
}  // namespace dclue::cluster
