#pragma once

/// \file directory.hpp
/// Cache-fusion directory (the "B" role in the paper's §2.1 protocol). A
/// page's directory entry lives at its home (cluster::PartitionMap::
/// home_of_page); each node runs one DirectoryService instance for the pages
/// it homes. The directory knows which nodes hold a page and
/// which (if any) holds it exclusively, and picks the data supplier for
/// remote fetches.
///
/// Hot-path layout: the page table is an open-addressing sim::FlatMap whose
/// 32-byte slots hold the page id, an inline HolderList of 16-bit node ids
/// (eight inline: every sharer of an 8-node cluster) and the exclusive
/// owner, so the lookup/confirm/evict cycle driven by every remote fetch
/// allocates nothing once the table is warm. Prewarm sizes the table once
/// (reserve) for the pages it records.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <new>

#include "db/table.hpp"
#include "sim/flat_map.hpp"

namespace dclue::cluster {

/// Node ids holding a page, in the order they were recorded. Ids are 16-bit
/// (core::Cluster rejects more than DirectoryService::kMaxNodes nodes) and
/// the first eight live inline; a longer list spills to one heap block whose
/// address is kept in the inline bytes. So the list is 20 bytes with 2-byte
/// alignment, and a directory slot with its page id and exclusive owner
/// stays at 32 bytes.
class HolderList {
 public:
  static constexpr std::size_t kInline = 8;

  HolderList() = default;
  HolderList(const HolderList&) = delete;
  HolderList& operator=(const HolderList&) = delete;
  HolderList& operator=(HolderList&&) = delete;
  /// Move (sim::FlatMap::rehash) steals a spilled block; inline ids are
  /// copied with it.
  HolderList(HolderList&& o) noexcept : size_(o.size_), cap_(o.cap_) {
    std::memcpy(ids_, o.ids_, sizeof ids_);
    o.size_ = 0;
    o.cap_ = kInline;
  }
  ~HolderList() { release(); }

  void push_back(int id) {
    if (size_ == cap_) grow();
    data()[size_++] = static_cast<std::int16_t>(id);
  }
  [[nodiscard]] bool contains(int id) const {
    return std::find(begin(), end(), id) != end();
  }
  /// Drop \p id, keeping the other holders in order; true if it was there.
  bool remove(int id) {
    std::int16_t* first = data();
    std::int16_t* kept = std::remove(first, first + size_, id);
    const bool removed = kept != first + size_;
    size_ = static_cast<std::uint16_t>(kept - first);
    return removed;
  }
  void clear() { size_ = 0; }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] const std::int16_t* begin() const { return data(); }
  [[nodiscard]] const std::int16_t* end() const { return data() + size_; }

 private:
  [[nodiscard]] bool spilled() const { return cap_ > kInline; }
  [[nodiscard]] std::int16_t* heap() const {
    std::int16_t* block = nullptr;
    std::memcpy(&block, ids_, sizeof block);
    return block;
  }
  [[nodiscard]] std::int16_t* data() { return spilled() ? heap() : ids_; }
  [[nodiscard]] const std::int16_t* data() const {
    return spilled() ? heap() : ids_;
  }
  void grow() {
    const auto ncap = static_cast<std::uint16_t>(cap_ * 2);
    auto* block = static_cast<std::int16_t*>(
        ::operator new(ncap * sizeof(std::int16_t)));
    std::memcpy(block, data(), size_ * sizeof(std::int16_t));
    release();
    std::memcpy(ids_, &block, sizeof block);
    cap_ = ncap;
  }
  void release() {
    if (spilled()) ::operator delete(heap());
  }

  std::int16_t ids_[kInline] = {};  ///< the ids, or the spilled block's address
  std::uint16_t size_ = 0;
  std::uint16_t cap_ = kInline;
};

class DirectoryService {
 public:
  /// Node ids must fit a HolderList entry.
  static constexpr int kMaxNodes = std::numeric_limits<std::int16_t>::max();

  struct LookupResult {
    bool has_supplier = false;
    int supplier = -1;
    HolderList invalidate;  ///< holders to invalidate (exclusive reqs)
  };

  /// Size the table for \p n pages at once, so recording them rehashes
  /// nothing (prewarm knows each home's page count).
  void reserve(std::size_t n) { entries_.reserve(n); }

  /// Look up \p page on behalf of \p requester. The requester is recorded as
  /// an (in-flight) holder immediately so concurrent lookups can be served
  /// from it once its copy lands. For exclusive requests, all other holders
  /// are scheduled for invalidation.
  LookupResult lookup(db::PageId page, int requester, bool exclusive) {
    Entry& entry = entries_[page];
    LookupResult result;
    // Prefer the exclusive owner as supplier, else the first other holder.
    if (entry.exclusive_owner >= 0 && entry.exclusive_owner != requester) {
      result.has_supplier = true;
      result.supplier = entry.exclusive_owner;
    } else {
      for (int h : entry.holders) {
        if (h != requester) {
          result.has_supplier = true;
          result.supplier = h;
          break;
        }
      }
    }
    if (exclusive) {
      for (int h : entry.holders) {
        if (h != requester) result.invalidate.push_back(h);
      }
      entry.holders.clear();
      entry.holders.push_back(requester);
      entry.exclusive_owner = static_cast<std::int16_t>(requester);
    } else {
      if (!entry.holders.contains(requester)) entry.holders.push_back(requester);
      if (entry.exclusive_owner >= 0 && entry.exclusive_owner != requester) {
        // Shared request demotes the exclusive owner to a plain holder.
        entry.exclusive_owner = -1;
      }
    }
    return result;
  }

  /// The requester confirms successful retrieval ("A eventually informs B").
  void confirm(db::PageId page, int holder) {
    Entry& entry = entries_[page];
    if (!entry.holders.contains(holder)) entry.holders.push_back(holder);
  }

  /// A holder evicted its copy ("if A had to evict a block ... it informs B").
  void evict(db::PageId page, int holder) {
    auto it = entries_.find(page);
    if (it == entries_.end()) return;
    Entry& entry = it->value;
    entry.holders.remove(holder);
    if (entry.exclusive_owner == holder) entry.exclusive_owner = -1;
    if (entry.holders.empty()) entries_.erase_compact(it);
  }

  [[nodiscard]] std::size_t entries() const { return entries_.size(); }
  [[nodiscard]] int holder_count(db::PageId page) const {
    auto it = entries_.find(page);
    return it == entries_.end() ? 0 : static_cast<int>(it->value.holders.size());
  }

  /// Crash cleanup: forget \p node as holder / exclusive owner of every
  /// page it held (its cache is gone, it can no longer supply blocks).
  /// Returns the number of entries the node was removed from.
  std::size_t purge_holder(int node) {
    std::size_t purged = 0;
    for (auto it = entries_.begin(); it != entries_.end();) {
      Entry& entry = it->value;
      bool touched = entry.holders.remove(node);
      if (entry.exclusive_owner == node) {
        entry.exclusive_owner = -1;
        touched = true;
      }
      if (touched) ++purged;
      if (entry.holders.empty()) {
        it = entries_.erase(it);
      } else {
        ++it;
      }
    }
    return purged;
  }

  /// The directory node itself crashed: its table restarts empty (holders
  /// re-register through confirm/lookup traffic after recovery).
  void clear() { entries_.clear(); }

  [[nodiscard]] const sim::ProbeStats& probe_stats() const {
    return entries_.probe_stats();
  }

 private:
  struct Entry {
    HolderList holders;
    std::int16_t exclusive_owner = -1;
  };
  static_assert(sizeof(sim::FlatMap<db::PageId, Entry>::Slot) <= 32,
                "a directory slot must stay within 32 bytes");

  sim::FlatMap<db::PageId, Entry> entries_;
};

}  // namespace dclue::cluster
