#pragma once

/// \file partition.hpp
/// The cluster's one placement rule. The database is partitioned in equal
/// blocks of warehouses per node (§2.2), and the YCSB keyspace in equal
/// contiguous key ranges. Every node-placement question the model asks is
/// answered here:
///   - owner_of_warehouse / owner_of_ycsb_key and route: where a client
///     sends a request (the owner with probability alpha;
///     workload/client.hpp);
///   - home_of_page(page): the one home of a page, taken from the last key
///     the page can hold. It masters the page's directory entry and its
///     sub-page locks, and its disks hold the block a miss reads (§2.1:
///     "from the disk (local or remote)"). cluster::FusionLayer asks it
///     for every page it touches, and the cache prewarm places pages by it.
///     As in RAC's resource affinity it is co-located with the partition,
///     so a perfectly affine workload (alpha = 1.0) generates almost no IPC.
/// Pages with no partition identity (the item table) are hash-homed across
/// the cluster.
///
/// Every warehouse-keyed table is key-clustered (see db::TableSpec), so both
/// data pages (page_no = key / rows_per_page) and index leaf pages
/// (page_no = key / keys_per_leaf) preserve the warehouse bits of the key,
/// which this map reconstructs. A page is one disk block, so it has one
/// home even where its key range straddles a partition boundary.

#include <algorithm>
#include <cstdint>

#include "db/tpcc_schema.hpp"
#include "sim/rng.hpp"

namespace dclue::cluster {

/// Home for pages with no partition identity (item table): a deterministic
/// hash spread across nodes.
constexpr int page_hash_home(db::PageId page, int num_nodes) {
  std::uint64_t h = page * 0x9e3779b97f4a7c15ULL;
  return static_cast<int>((h >> 17) % static_cast<std::uint64_t>(num_nodes));
}

class PartitionMap {
 public:
  PartitionMap(const db::TpccDatabase& db, int nodes) : db_(&db), nodes_(nodes) {}

  [[nodiscard]] int nodes() const { return nodes_; }
  [[nodiscard]] std::int64_t warehouses() const {
    return db_->scale().warehouses;
  }

  [[nodiscard]] int owner_of_warehouse(std::int64_t w) const {
    const std::int64_t total = warehouses();
    const std::int64_t idx = std::clamp<std::int64_t>(w - 1, 0, total - 1);
    return static_cast<int>(idx * nodes_ / total);
  }

  /// Contiguous-range owner of a YCSB key: node k owns keys
  /// [k*records/nodes, (k+1)*records/nodes). Runtime-inserted keys carry the
  /// minting node in the key itself (db::ycsb_insert_key).
  [[nodiscard]] int owner_of_ycsb_key(std::int64_t key) const {
    if (static_cast<db::Key>(key) >= db::kYcsbInsertBase) {
      return std::clamp(db::ycsb_insert_node(static_cast<db::Key>(key)), 0,
                        nodes_ - 1);
    }
    const std::int64_t records = std::max<std::int64_t>(db_->ycsb_records(), 1);
    const std::int64_t k = std::clamp<std::int64_t>(key, 0, records - 1);
    return static_cast<int>(k * nodes_ / records);
  }

  /// Affinity routing (§2.3): \p owner with probability \p affinity, else a
  /// uniformly random node. Draws one chance(), and one uniform_int() only
  /// when the coin misses.
  [[nodiscard]] int route(sim::Rng& rng, double affinity, int owner) const {
    return rng.chance(affinity) ? owner
                                : static_cast<int>(rng.uniform_int(0, nodes_ - 1));
  }

  /// The one home of a page: the owner of the LAST key the page can hold.
  /// Key runs start at the bottom of each warehouse's block (and of each
  /// node's YCSB range), so when a page straddles a block boundary its
  /// populated rows belong to the *higher* warehouse, and the end-of-page
  /// key recovers exactly that one.
  [[nodiscard]] int home_of_page(db::PageId page) const {
    const db::TableId table = db::table_of_page(page);
    if (table == db::TableId::kItem) return page_hash_home(page, nodes_);
    const std::int64_t keys_per_page =
        db::is_index_page(page) ? 32 : rows_per_page(table);  // Table::kIndexKeysPerLeaf
    const auto page_no = static_cast<std::int64_t>(db::page_number(page));
    const auto last = static_cast<db::Key>((page_no + 1) * keys_per_page - 1);
    if (table == db::TableId::kYcsb) {
      return owner_of_ycsb_key(static_cast<std::int64_t>(last));
    }
    return owner_of_warehouse(static_cast<std::int64_t>(last >> key_shift(table)));
  }

 private:
  /// Bit position of the warehouse id within each table's composite key.
  [[nodiscard]] static int key_shift(db::TableId table) {
    switch (table) {
      case db::TableId::kWarehouse:
        return 0;
      case db::TableId::kDistrict:
        return 8;
      case db::TableId::kCustomer:
        return 28;
      case db::TableId::kStock:
        return 20;
      case db::TableId::kOrder:
      case db::TableId::kNewOrder:
        return 40;
      case db::TableId::kOrderLine:
        return 44;
      case db::TableId::kHistory:
        return 32;
      default:
        return 0;
    }
  }

  [[nodiscard]] static std::int64_t rows_per_page(db::TableId table) {
    switch (table) {
      case db::TableId::kWarehouse:
        return 1;  // padded hot rows
      case db::TableId::kDistrict:
        return db::kPageBytes / db::TpccSpecs::district.row_bytes;
      case db::TableId::kCustomer:
        return db::kPageBytes / db::TpccSpecs::customer.row_bytes;
      case db::TableId::kStock:
        return db::kPageBytes / db::TpccSpecs::stock.row_bytes;
      case db::TableId::kOrder:
        return db::kPageBytes / db::TpccSpecs::order.row_bytes;
      case db::TableId::kNewOrder:
        return db::kPageBytes / db::TpccSpecs::new_order.row_bytes;
      case db::TableId::kOrderLine:
        return db::kPageBytes / db::TpccSpecs::order_line.row_bytes;
      case db::TableId::kHistory:
        return db::kPageBytes / db::TpccSpecs::history.row_bytes;
      case db::TableId::kYcsb:
        return db::kPageBytes / db::TpccSpecs::ycsb.row_bytes;
      default:
        return 1;
    }
  }

  const db::TpccDatabase* db_;
  int nodes_;
};

}  // namespace dclue::cluster
