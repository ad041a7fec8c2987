#pragma once

/// \file table.hpp
/// Row storage with TPC-C-accurate physical layout. Row *content* is held
/// compactly (only what executing queries requires), but the on-disk layout —
/// spec row sizes, rows per 8 KB block, index leaf pages — is tracked
/// exactly, because buffer-cache residency, lock granularity, and disk
/// addresses are all derived from it (DCLUE: "retaining the precise row
/// sizes, rows per block, etc.").

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "db/btree.hpp"
#include "sim/units.hpp"

namespace dclue::db {

using RowId = std::uint64_t;
using Key = std::uint64_t;

/// Page identifier layout:
///   bits 60..63  table id
///   bit  59      index page flag
///   bits 0..58   page number (key-clustered tables use sparse key-derived
///                numbers, so the field must hold key / rows_per_page for
///                the largest composite keys)
using PageId = std::uint64_t;

inline constexpr sim::Bytes kPageBytes = 8192;

enum class TableId : std::uint8_t {
  kWarehouse = 1,
  kDistrict,
  kCustomer,
  kHistory,
  kNewOrder,
  kOrder,
  kOrderLine,
  kItem,
  kStock,
  kYcsb,  ///< dense keyed table for the YCSB workload family (workload/ycsb.hpp)
};

constexpr PageId make_page_id(TableId table, bool index, std::uint64_t page_no) {
  return (static_cast<PageId>(table) << 60) |
         (index ? (PageId{1} << 59) : 0) | (page_no & ((PageId{1} << 59) - 1));
}
constexpr TableId table_of_page(PageId p) {
  return static_cast<TableId>(p >> 60);
}
constexpr bool is_index_page(PageId p) { return (p >> 59) & 1; }
constexpr std::uint64_t page_number(PageId p) {
  return p & ((PageId{1} << 59) - 1);
}

/// Global lock name for a sub-page: an opaque 64-bit id (splitmix64 over
/// page and sub-page; collisions are ~2^-64 per pair and would only cause
/// spurious conflicts, never corruption). The lock's home node travels with
/// the name wherever routing is needed.
using LockName = std::uint64_t;

constexpr std::uint64_t lock_name(PageId page, int subpage) {
  std::uint64_t x = page ^ (static_cast<std::uint64_t>(subpage) * 0x9e3779b97f4a7c15ULL);
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct TableSpec {
  TableId id;
  const char* name;
  sim::Bytes row_bytes;
  /// Lock granularity. The paper tunes this per table ("the district table
  /// is accessed very frequently and needs a small subpage size").
  sim::Bytes subpage_bytes;
  /// Clustered tables place rows on pages by key prefix (index-organized:
  /// orders of one district share pages) rather than heap row id. This is
  /// how real TPC-C schemas behave, it keeps each partition's inserts on
  /// its own pages instead of a cluster-global append hotspot, and it keeps
  /// hot pages from straddling partition boundaries (page-level false
  /// sharing would otherwise ping-pong pages between nodes even at
  /// affinity 1.0).
  bool clustered = false;
  /// Force rows-per-page (e.g. the hot warehouse rows are padded to a page
  /// each, standard practice for contended TPC-C rows).
  int rows_per_page_override = 0;
};

/// Typed table: compact row store + real B+-tree primary index + physical
/// layout math.
template <typename Row>
class Table {
 public:
  explicit Table(TableSpec spec)
      : spec_(spec),
        rows_per_page_(spec.rows_per_page_override > 0
                           ? spec.rows_per_page_override
                           : static_cast<int>(kPageBytes / spec.row_bytes)),
        chunks_(std::make_unique<std::atomic<Row*>[]>(kMaxChunks)) {}
  ~Table() {
    for (std::size_t c = 0; c < kMaxChunks; ++c) {
      delete[] chunks_[c].load(std::memory_order_relaxed);
    }
  }
  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  [[nodiscard]] const TableSpec& spec() const { return spec_; }

  /// Sharded runs: serialize structural operations (index mutation, row-slot
  /// allocation) behind a mutex. The index *shape* and row-id allocation
  /// order are unobservable to the model (clustered tables derive pages from
  /// keys, nothing reads B-tree height), so serializing them in whatever
  /// thread order arises is determinism-safe; row *content* access stays
  /// lock-free on the stable chunked store.
  void enable_concurrent_access() {
    if (!guard_) guard_ = std::make_unique<std::mutex>();
  }

  RowId insert(Key key, Row row) {
    auto lock = maybe_lock();
    RowId id;
    if (!free_.empty()) {
      id = free_.back();
      free_.pop_back();
      slot(id) = std::move(row);
    } else {
      id = row_count_;
      Row* r = emplace_slot(id);
      *r = std::move(row);
      ++row_count_;
    }
    index_.insert(key, id);
    return id;
  }

  /// nullptr when the key is absent.
  Row* find(Key key) {
    auto lock = maybe_lock();
    auto id = index_.find(key);
    return id ? &slot(*id) : nullptr;
  }
  [[nodiscard]] std::optional<RowId> find_id(Key key) const {
    auto lock = maybe_lock();
    return index_.find(key);
  }
  Row& row(RowId id) { return slot(id); }
  const Row& row(RowId id) const { return slot(id); }

  bool erase(Key key) {
    auto lock = maybe_lock();
    auto id = index_.find(key);
    if (!id) return false;
    index_.erase(key);
    free_.push_back(*id);
    return true;
  }

  /// Smallest key in [lo, hi), atomically against concurrent structural
  /// changes. The scan in DELIVERY needs this: a raw lower_bound iterator
  /// would walk B-tree leaves while another shard's insert splits them.
  [[nodiscard]] std::optional<Key> first_key_in_range(Key lo, Key hi) const {
    auto lock = maybe_lock();
    auto it = index_.lower_bound(lo);
    if (!it.valid() || it.key() >= hi) return std::nullopt;
    return it.key();
  }

  [[nodiscard]] auto lower_bound(Key key) const { return index_.lower_bound(key); }
  [[nodiscard]] std::size_t size() const { return index_.size(); }

  /// --- physical layout ----------------------------------------------------
  [[nodiscard]] PageId data_page_of(RowId id) const {
    return make_page_id(spec_.id, false, id / static_cast<RowId>(rows_per_page_));
  }
  [[nodiscard]] int subpage_of(RowId id) const {
    const auto offset = (id % static_cast<RowId>(rows_per_page_)) * spec_.row_bytes;
    return static_cast<int>(offset / spec_.subpage_bytes);
  }
  /// Key-derived page/subpage for clustered tables.
  [[nodiscard]] PageId data_page_of_key(Key key) const {
    return make_page_id(spec_.id, false, key / static_cast<Key>(rows_per_page_));
  }
  [[nodiscard]] int subpage_of_key(Key key) const {
    const auto offset = (key % static_cast<Key>(rows_per_page_)) *
                        static_cast<Key>(spec_.row_bytes);
    return static_cast<int>(offset / static_cast<Key>(spec_.subpage_bytes));
  }
  /// Resolve the page/subpage of a row given both its key and row id.
  [[nodiscard]] PageId page_for(Key key, RowId id) const {
    return spec_.clustered ? data_page_of_key(key) : data_page_of(id);
  }
  [[nodiscard]] int subpage_for(Key key, RowId id) const {
    return spec_.clustered ? subpage_of_key(key) : subpage_of(id);
  }
  /// Index leaf page holding \p key: a B+-tree leaf covers a contiguous key
  /// range (~32 entries here), so leaves inherit the key's warehouse
  /// affinity — exactly how a real index clusters.
  static constexpr std::int64_t kIndexKeysPerLeaf = 32;
  [[nodiscard]] PageId index_page_of(Key key) const {
    return make_page_id(spec_.id, true, key / kIndexKeysPerLeaf);
  }
  /// The page new rows land on (append locality for growing tables).
  [[nodiscard]] PageId append_page() const {
    return make_page_id(spec_.id, false,
                        index_.size() / static_cast<std::size_t>(rows_per_page_));
  }
  [[nodiscard]] std::uint64_t data_pages() const {
    return row_count_ / static_cast<RowId>(rows_per_page_) + 1;
  }
  /// Call \p fn once per distinct data page, in key order: a clustered
  /// table's pages are keyed, so they are enumerated through the index;
  /// heap pages are numbered 0 .. data_pages() - 1.
  template <typename Fn>
  void for_each_data_page(Fn&& fn) const {
    if (spec_.clustered) {
      for_each_key_page(false, static_cast<Key>(rows_per_page_), fn);
    } else {
      for (std::uint64_t p = 0; p < data_pages(); ++p) {
        fn(make_page_id(spec_.id, false, p));
      }
    }
  }
  /// Call \p fn once per distinct index leaf page, in key order.
  template <typename Fn>
  void for_each_index_page(Fn&& fn) const {
    for_each_key_page(true, static_cast<Key>(kIndexKeysPerLeaf), fn);
  }
  /// Distinct resident data pages (clustered tables fragment by key range).
  [[nodiscard]] std::uint64_t distinct_data_pages() const {
    std::uint64_t count = 0;
    for_each_data_page([&count](PageId) { ++count; });
    return std::max<std::uint64_t>(count, 1);
  }
  /// Distinct index leaf pages (key-range leaves fragment like data pages).
  [[nodiscard]] std::uint64_t distinct_index_pages() const {
    std::uint64_t count = 0;
    for_each_index_page([&count](PageId) { ++count; });
    return std::max<std::uint64_t>(count, 1);
  }
  [[nodiscard]] int rows_per_page() const { return rows_per_page_; }

 private:
  /// Row storage: a fixed directory of lazily-allocated chunks. Row addresses
  /// are stable forever (unlike deque/vector growth, whose internal-map or
  /// buffer reallocation would race with lock-free row() readers on other
  /// shards), and a chunk publish is a single release store that readers
  /// acquire through the directory slot.
  static constexpr std::size_t kChunkShift = 13;  ///< 8192 rows per chunk
  static constexpr std::size_t kRowsPerChunk = std::size_t{1} << kChunkShift;
  static constexpr std::size_t kMaxChunks = std::size_t{1} << 15;

  Row& slot(RowId id) const {
    Row* chunk = chunks_[id >> kChunkShift].load(std::memory_order_acquire);
    return chunk[id & (kRowsPerChunk - 1)];
  }
  Row* emplace_slot(RowId id) {
    const std::size_t c = id >> kChunkShift;
    if (c >= kMaxChunks) throw std::length_error("Table chunk directory full");
    Row* chunk = chunks_[c].load(std::memory_order_relaxed);
    if (chunk == nullptr) {
      chunk = new Row[kRowsPerChunk]();
      chunks_[c].store(chunk, std::memory_order_release);
    }
    return chunk + (id & (kRowsPerChunk - 1));
  }
  /// One walk of the index for a page layout of \p keys_per_page keys: a
  /// page's first key is found by one division, and the keys after it on
  /// the same page are skipped by subtraction alone.
  template <typename Fn>
  void for_each_key_page(bool index, Key keys_per_page, Fn& fn) const {
    for (auto it = index_.begin(); it.valid();) {
      const Key page_no = it.key() / keys_per_page;
      const Key first_key = page_no * keys_per_page;
      fn(make_page_id(spec_.id, index, page_no));
      do {
        it.next();
      } while (it.valid() && it.key() - first_key < keys_per_page);
    }
  }
  [[nodiscard]] std::unique_lock<std::mutex> maybe_lock() const {
    return guard_ ? std::unique_lock<std::mutex>(*guard_)
                  : std::unique_lock<std::mutex>();
  }

  TableSpec spec_;
  int rows_per_page_;
  std::unique_ptr<std::atomic<Row*>[]> chunks_;
  RowId row_count_ = 0;
  std::vector<RowId> free_;
  BTree<Key, RowId> index_;
  mutable std::unique_ptr<std::mutex> guard_;
};

}  // namespace dclue::db
