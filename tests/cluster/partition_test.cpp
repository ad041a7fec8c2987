#include "cluster/partition.hpp"

#include <gtest/gtest.h>

namespace dclue::cluster {
namespace {

struct Fixture {
  db::TpccScale scale;
  std::unique_ptr<db::TpccDatabase> db;
  explicit Fixture(std::int64_t warehouses = 80) {
    scale.warehouses = warehouses;
    scale.customers_per_district = 60;
    scale.items = 200;
    db = std::make_unique<db::TpccDatabase>(scale);
    sim::Rng rng(1);
    db->populate(rng);
  }
};

TEST(PartitionMap, WarehousesSplitIntoEqualBlocks) {
  Fixture f(80);
  PartitionMap pm(*f.db, 4);
  EXPECT_EQ(pm.owner_of_warehouse(1), 0);
  EXPECT_EQ(pm.owner_of_warehouse(20), 0);
  EXPECT_EQ(pm.owner_of_warehouse(21), 1);
  EXPECT_EQ(pm.owner_of_warehouse(40), 1);
  EXPECT_EQ(pm.owner_of_warehouse(80), 3);
  // Out-of-range warehouses clamp rather than crash.
  EXPECT_EQ(pm.owner_of_warehouse(0), 0);
  EXPECT_EQ(pm.owner_of_warehouse(999), 3);
}

TEST(PartitionMap, SingleNodeOwnsEverything) {
  Fixture f;
  PartitionMap pm(*f.db, 1);
  EXPECT_EQ(pm.home_of_page(f.db->district.data_page_of_key(db::key_wd(77, 3))), 0);
}

/// Property: for every warehouse-keyed table, the page home of any row's
/// page equals the owner of the row's warehouse — this is what makes an
/// affinity-1.0 workload IPC-free.
TEST(PartitionMap, DataPageHomesMatchWarehouseOwner) {
  Fixture f(80);
  PartitionMap pm(*f.db, 4);
  for (std::int64_t w : {1, 19, 20, 21, 41, 60, 61, 80}) {
    const int owner = pm.owner_of_warehouse(w);
    EXPECT_EQ(pm.home_of_page(f.db->warehouse.data_page_of_key(db::key_w(w))),
              owner)
        << "warehouse w=" << w;
    for (std::int64_t d : {1, 5, 10}) {
      EXPECT_EQ(pm.home_of_page(f.db->district.data_page_of_key(db::key_wd(w, d))),
                owner)
          << "district w=" << w << " d=" << d;
      EXPECT_EQ(pm.home_of_page(
                    f.db->customer.data_page_of_key(db::key_wdc(w, d, 37))),
                owner)
          << "customer w=" << w;
      EXPECT_EQ(pm.home_of_page(
                    f.db->order.data_page_of_key(db::key_wdo(w, d, 12345))),
                owner)
          << "order w=" << w;
      EXPECT_EQ(pm.home_of_page(f.db->order_line.data_page_of_key(
                    db::key_wdool(w, d, 12345, 7))),
                owner)
          << "order_line w=" << w;
      EXPECT_EQ(pm.home_of_page(
                    f.db->new_order.data_page_of_key(db::key_wdo(w, d, 12345))),
                owner)
          << "new_order w=" << w;
    }
    EXPECT_EQ(pm.home_of_page(f.db->stock.data_page_of_key(db::key_wi(w, 155))),
              owner)
        << "stock w=" << w;
    EXPECT_EQ(pm.home_of_page(
                  f.db->history.data_page_of_key(db::key_history(w, 999999))),
              owner)
        << "history w=" << w;
  }
}

TEST(PartitionMap, IndexLeafHomesMatchWarehouseOwner) {
  Fixture f(80);
  PartitionMap pm(*f.db, 4);
  for (std::int64_t w : {1, 21, 55, 80}) {
    const int owner = pm.owner_of_warehouse(w);
    EXPECT_EQ(pm.home_of_page(f.db->stock.index_page_of(db::key_wi(w, 500))),
              owner);
    EXPECT_EQ(pm.home_of_page(
                  f.db->order.index_page_of(db::key_wdo(w, 4, 1'000'000))),
              owner);
  }
}

TEST(PartitionMap, ItemPagesSpreadAcrossNodes) {
  Fixture f(80);
  PartitionMap pm(*f.db, 4);
  std::array<int, 4> seen{};
  for (std::int64_t i = 1; i <= 200; i += 10) {
    int home = pm.home_of_page(f.db->item.data_page_of(
        *f.db->item.find_id(db::key_i(i))));
    ASSERT_GE(home, 0);
    ASSERT_LT(home, 4);
    ++seen[static_cast<std::size_t>(home)];
  }
  int covered = 0;
  for (int c : seen) covered += c > 0 ? 1 : 0;
  EXPECT_GE(covered, 2);  // hashing spreads item pages around
}

TEST(PartitionMap, PageNumbersSurviveWideKeys) {
  // The largest composite keys (order-line of the last warehouse) must not
  // overflow the page-number field or collide across warehouses.
  Fixture f(80);
  const db::PageId a = f.db->order_line.data_page_of_key(db::key_wdool(20, 10, 1, 1));
  const db::PageId b = f.db->order_line.data_page_of_key(db::key_wdool(21, 10, 1, 1));
  EXPECT_NE(a, b);
  EXPECT_EQ(db::table_of_page(a), db::TableId::kOrderLine);
  PartitionMap pm(*f.db, 4);
  // w=20 and w=21 sit on opposite sides of a partition boundary.
  EXPECT_NE(pm.home_of_page(a), pm.home_of_page(b));
}

/// A page's one home is the owner of the last key the page can hold, on
/// data pages and index leaves alike, in every warehouse-keyed table. The
/// warehouse of a key is read off the table's key constructor: the highest
/// w whose first key is not above it.
TEST(PartitionMap, PageHomeIsTheLastKeyOwnerInEveryTable) {
  Fixture f(80);
  PartitionMap pm(*f.db, 4);
  const auto expect_home = [&](const auto& table, db::Key key, auto first_key_of) {
    const auto owner_of_key = [&](db::Key k) {
      std::int64_t w = 1;
      while (first_key_of(w + 1) <= k) ++w;
      return pm.owner_of_warehouse(w);
    };
    const auto rows = static_cast<db::Key>(table.rows_per_page());
    const auto keys_per_leaf = static_cast<db::Key>(table.kIndexKeysPerLeaf);
    EXPECT_EQ(pm.home_of_page(table.data_page_of_key(key)),
              owner_of_key((key / rows + 1) * rows - 1))
        << table.spec().name << " data page, key " << key;
    EXPECT_EQ(pm.home_of_page(table.index_page_of(key)),
              owner_of_key((key / keys_per_leaf + 1) * keys_per_leaf - 1))
        << table.spec().name << " index leaf, key " << key;
  };
  for (std::int64_t w : {1, 20, 21, 41, 61, 80}) {
    expect_home(f.db->warehouse, db::key_w(w),
                [](std::int64_t x) { return db::key_w(x); });
    expect_home(f.db->district, db::key_wd(w, 7),
                [](std::int64_t x) { return db::key_wd(x, 0); });
    expect_home(f.db->customer, db::key_wdc(w, 7, 37),
                [](std::int64_t x) { return db::key_wdc(x, 0, 0); });
    expect_home(f.db->order, db::key_wdo(w, 7, 12345),
                [](std::int64_t x) { return db::key_wdo(x, 0, 0); });
    expect_home(f.db->new_order, db::key_wdo(w, 7, 12345),
                [](std::int64_t x) { return db::key_wdo(x, 0, 0); });
    expect_home(f.db->order_line, db::key_wdool(w, 7, 12345, 9),
                [](std::int64_t x) { return db::key_wdool(x, 0, 0, 0); });
    expect_home(f.db->stock, db::key_wi(w, 155),
                [](std::int64_t x) { return db::key_wi(x, 0); });
    expect_home(f.db->history, db::key_history(w, 4242),
                [](std::int64_t x) { return db::key_history(x, 0); });
  }
  // A new-order line supplied by a remote warehouse: the stock row's page
  // lives with the supplier, not with the ordering terminal's warehouse.
  EXPECT_EQ(pm.home_of_page(f.db->stock.data_page_of_key(db::key_wi(61, 155))), 3);
  EXPECT_NE(pm.owner_of_warehouse(1), 3);
}

/// A page is one disk block, so a page whose key range crosses a partition
/// boundary still has one home: the owner of its last key, for every row
/// on it.
TEST(PartitionMap, StraddlingPageHomeIsItsLastKeyOwner) {
  Fixture f(80);
  PartitionMap pm(*f.db, 4);
  // The last order-line key of warehouse 20 (node 0); 151 rows per page do
  // not divide the block, so its page runs into warehouse 21 (node 1).
  const db::Key last_of_20 = db::key_wdool(20, 255, 0xffffffff, 15);
  ASSERT_EQ(last_of_20 + 1, db::key_wdool(21, 0, 0, 0));
  const db::PageId page = f.db->order_line.data_page_of_key(last_of_20);
  ASSERT_EQ(page, f.db->order_line.data_page_of_key(last_of_20 + 1));
  EXPECT_EQ(pm.owner_of_warehouse(20), 0);
  EXPECT_EQ(pm.home_of_page(page), 1);
  // The warehouse table's first index leaf holds warehouses 0-31, owned by
  // nodes 0 and 1 at 80 warehouses on 4 nodes.
  const db::PageId leaf = f.db->warehouse.index_page_of(db::key_w(1));
  ASSERT_EQ(leaf, f.db->warehouse.index_page_of(db::key_w(31)));
  EXPECT_EQ(pm.owner_of_warehouse(1), 0);
  EXPECT_EQ(pm.owner_of_warehouse(31), 1);
  EXPECT_EQ(pm.home_of_page(leaf), 1);
}

TEST(PartitionMap, ItemStorageHomeIsThePageHash) {
  Fixture f(80);
  PartitionMap pm(*f.db, 4);
  for (std::int64_t i = 1; i <= 200; i += 13) {
    const db::Key key = db::key_i(i);
    const db::PageId data = f.db->item.page_for(key, *f.db->item.find_id(key));
    const db::PageId leaf = f.db->item.index_page_of(key);
    EXPECT_EQ(pm.home_of_page(data), page_hash_home(data, 4)) << "item " << i;
    EXPECT_EQ(pm.home_of_page(leaf), page_hash_home(leaf, 4)) << "item " << i;
  }
}

TEST(PartitionMap, YcsbPageHomeIsTheLastKeyOwner) {
  Fixture f(80);
  f.db->build_ycsb(1000);
  PartitionMap pm(*f.db, 4);
  const auto& table = *f.db->ycsb;
  const std::int64_t rows = table.rows_per_page();
  const std::int64_t keys_per_leaf = table.kIndexKeysPerLeaf;
  // Dense keys: node k owns [250k, 250k + 250).
  for (std::int64_t k : {0, 249, 250, 499, 500, 750, 999}) {
    const db::Key key = db::key_ycsb(k);
    EXPECT_EQ(pm.owner_of_ycsb_key(k), static_cast<int>(k / 250));
    EXPECT_EQ(pm.home_of_page(table.data_page_of_key(key)),
              pm.owner_of_ycsb_key((k / rows + 1) * rows - 1))
        << k;
    EXPECT_EQ(pm.home_of_page(table.index_page_of(key)),
              pm.owner_of_ycsb_key((k / keys_per_leaf + 1) * keys_per_leaf - 1))
        << k;
  }
  // Keys 248..255 share a data page, and 224..255 an index leaf, across
  // the node 0 / node 1 boundary: both are homed at node 1.
  const db::PageId straddle = table.data_page_of_key(db::key_ycsb(249));
  ASSERT_EQ(straddle, table.data_page_of_key(db::key_ycsb(248)));
  ASSERT_EQ(straddle, table.data_page_of_key(db::key_ycsb(255)));
  const db::PageId leaf = table.index_page_of(db::key_ycsb(249));
  ASSERT_EQ(leaf, table.index_page_of(db::key_ycsb(224)));
  ASSERT_EQ(leaf, table.index_page_of(db::key_ycsb(255)));
  EXPECT_EQ(pm.owner_of_ycsb_key(249), 0);
  EXPECT_EQ(pm.home_of_page(straddle), 1);
  EXPECT_EQ(pm.home_of_page(leaf), 1);
  // Insert-region keys carry their minting node.
  for (int node : {0, 2, 3}) {
    const db::Key key = db::ycsb_insert_key(node, 17);
    EXPECT_EQ(pm.owner_of_ycsb_key(static_cast<std::int64_t>(key)), node);
    EXPECT_EQ(pm.home_of_page(table.data_page_of_key(key)), node);
    EXPECT_EQ(pm.home_of_page(table.index_page_of(key)), node);
  }
}

/// route draws as every client always has: one chance() per request, and a
/// uniform_int() only when the coin misses.
TEST(PartitionMap, RouteDrawsOneCoinAndAUniformNodeOnlyOnAMiss) {
  Fixture f(80);
  PartitionMap pm(*f.db, 4);
  sim::Rng rng(99), twin(99);
  for (int i = 0; i < 200; ++i) {
    const int expected = twin.chance(0.5) ? 2 : static_cast<int>(twin.uniform_int(0, 3));
    EXPECT_EQ(pm.route(rng, 0.5, 2), expected) << "draw " << i;
  }
  // Affinity 1.0 always routes to the owner.
  for (int i = 0; i < 20; ++i) EXPECT_EQ(pm.route(rng, 1.0, 3), 3);
}

}  // namespace
}  // namespace dclue::cluster
