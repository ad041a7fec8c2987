#include <gtest/gtest.h>

#include <vector>

#include "db/table.hpp"
#include "db/tpcc_schema.hpp"

namespace dclue::db {
namespace {

TEST(PageId, LayoutRoundTrips) {
  PageId p = make_page_id(TableId::kStock, false, 12345);
  EXPECT_EQ(table_of_page(p), TableId::kStock);
  PageId idx = make_page_id(TableId::kStock, true, 12345);
  EXPECT_NE(p, idx);
  EXPECT_EQ(table_of_page(idx), TableId::kStock);
}

TEST(PageId, LockNamesDistinctAcrossSubpages) {
  PageId p = make_page_id(TableId::kDistrict, false, 7);
  EXPECT_NE(lock_name(p, 0), lock_name(p, 1));
  PageId q = make_page_id(TableId::kDistrict, false, 8);
  EXPECT_NE(lock_name(p, 0), lock_name(q, 0));
}

TEST(Keys, CompositeKeysAreDistinctAndOrdered) {
  EXPECT_LT(key_wd(1, 1), key_wd(1, 2));
  EXPECT_LT(key_wd(1, 10), key_wd(2, 1));
  EXPECT_LT(key_wdo(1, 1, 5), key_wdo(1, 1, 6));
  EXPECT_LT(key_wdo(1, 1, 999999), key_wdo(1, 2, 1));
  EXPECT_LT(key_wdool(1, 1, 5, 1), key_wdool(1, 1, 5, 2));
  EXPECT_LT(key_wdool(1, 1, 5, 15), key_wdool(1, 1, 6, 1));
  EXPECT_NE(key_wdc(1, 1, 7), key_wdo(1, 1, 7));
}

TEST(Table, RowsPerPageFollowsSpecRowSize) {
  Table<StockRow> t(TpccSpecs::stock);
  EXPECT_EQ(t.rows_per_page(), 8192 / 306);
  Table<NewOrderRow> no(TpccSpecs::new_order);
  EXPECT_EQ(no.rows_per_page(), 1024);
}

TEST(Table, DataPageAndSubpageMath) {
  Table<DistrictRow> t(TpccSpecs::district);  // 95B rows, 128B subpages
  const int rpp = t.rows_per_page();
  // Fill two pages worth of rows.
  for (std::int64_t i = 0; i < 2 * rpp; ++i) {
    t.insert(static_cast<Key>(i), DistrictRow{});
  }
  RowId first = *t.find_id(0);
  RowId second_page = *t.find_id(static_cast<Key>(rpp));
  EXPECT_NE(t.data_page_of(first), t.data_page_of(second_page));
  // Subpage of 128B on 95B rows: row 0 -> subpage 0, row 2 (190B..) -> 1+.
  EXPECT_EQ(t.subpage_of(0), 0);
  EXPECT_GT(t.subpage_of(3), 0);
}

TEST(Table, InsertFindErase) {
  Table<CustomerRow> t(TpccSpecs::customer);
  t.insert(key_wdc(1, 1, 1), CustomerRow{});
  ASSERT_NE(t.find(key_wdc(1, 1, 1)), nullptr);
  t.find(key_wdc(1, 1, 1))->balance = 42.0;
  EXPECT_DOUBLE_EQ(t.find(key_wdc(1, 1, 1))->balance, 42.0);
  EXPECT_TRUE(t.erase(key_wdc(1, 1, 1)));
  EXPECT_EQ(t.find(key_wdc(1, 1, 1)), nullptr);
}

TEST(Table, ErasedSlotsAreReused) {
  Table<NewOrderRow> t(TpccSpecs::new_order);
  t.insert(1, NewOrderRow{});
  RowId id = *t.find_id(1);
  t.erase(1);
  t.insert(2, NewOrderRow{});
  EXPECT_EQ(*t.find_id(2), id);
}

TEST(Table, IndexPageStableForSameKey) {
  Table<StockRow> t(TpccSpecs::stock);
  for (std::int64_t i = 1; i <= 10'000; ++i) t.insert(key_wi(1, i), StockRow{});
  PageId a = t.index_page_of(key_wi(1, 77));
  PageId b = t.index_page_of(key_wi(1, 77));
  EXPECT_EQ(a, b);
  EXPECT_EQ(table_of_page(a), TableId::kStock);
}

TEST(Table, PageEnumeratorsVisitEachPageOnceInKeyOrder) {
  // Sparse keys: runs that share a page, gaps that skip pages, and runs
  // that cross a page boundary. The reference maps every key to its page.
  Table<OrderLineRow> lines(TpccSpecs::order_line);
  std::vector<Key> keys;
  for (std::int64_t o = 1; o <= 300; o += 1 + o % 7) {
    for (std::int64_t ol = 1; ol <= 5 + o % 11; ++ol) {
      keys.push_back(key_wdool(2, 3, o, ol));
    }
  }
  for (Key k : keys) lines.insert(k, OrderLineRow{});
  const auto enumerate = [](auto for_each) {
    std::vector<PageId> pages;
    for_each([&pages](PageId p) { pages.push_back(p); });
    return pages;
  };
  const auto reference = [&keys](auto page_of) {
    std::vector<PageId> pages;
    for (Key k : keys) {
      if (pages.empty() || pages.back() != page_of(k)) pages.push_back(page_of(k));
    }
    return pages;
  };
  const auto data = enumerate([&](auto fn) { lines.for_each_data_page(fn); });
  const auto index = enumerate([&](auto fn) { lines.for_each_index_page(fn); });
  EXPECT_EQ(data, reference([&](Key k) { return lines.data_page_of_key(k); }));
  EXPECT_EQ(index, reference([&](Key k) { return lines.index_page_of(k); }));
  EXPECT_GT(data.size(), 1u);
  EXPECT_EQ(lines.distinct_data_pages(), data.size());
  EXPECT_EQ(lines.distinct_index_pages(), index.size());

  // A heap table numbers its data pages densely.
  Table<ItemRow> items(TpccSpecs::item);
  for (Key k = 1; k <= 500; ++k) items.insert(k, ItemRow{});
  const auto heap = enumerate([&](auto fn) { items.for_each_data_page(fn); });
  ASSERT_EQ(heap.size(), items.data_pages());
  for (std::size_t p = 0; p < heap.size(); ++p) {
    EXPECT_EQ(heap[p], make_page_id(TableId::kItem, false, p));
  }
}

TEST(TpccDatabase, PopulationMatchesCardinalityRules) {
  TpccScale scale;
  scale.warehouses = 3;
  scale.customers_per_district = 30;
  scale.items = 100;
  scale.initial_orders_per_district = 9;
  TpccDatabase db(scale);
  sim::Rng rng(1);
  db.populate(rng);

  EXPECT_EQ(db.warehouse.size(), 3u);
  EXPECT_EQ(db.district.size(), 30u);
  EXPECT_EQ(db.customer.size(), 3u * 10 * 30);
  EXPECT_EQ(db.item.size(), 100u);
  EXPECT_EQ(db.stock.size(), 300u);
  EXPECT_EQ(db.order.size(), 30u * 9);
  // One third of initial orders are undelivered new-orders.
  EXPECT_EQ(db.new_order.size(), 30u * 3);
  EXPECT_GT(db.order_line.size(), db.order.size() * 5);
}

TEST(TpccDatabase, DistrictNextOrderIdStartsAfterInitialOrders) {
  TpccScale scale;
  scale.warehouses = 1;
  scale.initial_orders_per_district = 9;
  TpccDatabase db(scale);
  sim::Rng rng(1);
  db.populate(rng);
  EXPECT_EQ(db.district.find(key_wd(1, 1))->next_o_id, 10);
}

TEST(TpccDatabase, OldestNewOrderScanPerDistrict) {
  TpccScale scale;
  scale.warehouses = 1;
  scale.initial_orders_per_district = 9;
  TpccDatabase db(scale);
  sim::Rng rng(1);
  db.populate(rng);
  // The undelivered orders are the most recent third: ids 7..9.
  auto it = db.new_order.lower_bound(key_wdo(1, 1, 0));
  ASSERT_TRUE(it.valid());
  EXPECT_EQ(it.key(), key_wdo(1, 1, 7));
}

TEST(TpccDatabase, TotalDataPagesIsPlausible) {
  TpccScale scale;
  TpccDatabase db(scale);
  sim::Rng rng(1);
  db.populate(rng);
  // 40 warehouses: customer table dominates (120K rows / 12 per page = 10K).
  EXPECT_GT(db.total_data_pages(), 10'000u);
  EXPECT_LT(db.total_data_pages(), 100'000u);
}

}  // namespace
}  // namespace dclue::db
