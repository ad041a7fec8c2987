#pragma once

/// \file directory.hpp
/// Cache-fusion directory (the "B" role in the paper's §2.1 protocol). A
/// page's directory entry lives at its home (cluster::PartitionMap::
/// home_of_page); each node runs one DirectoryService instance for the pages
/// it homes. The directory knows which nodes hold a page and
/// which (if any) holds it exclusively, and picks the data supplier for
/// remote fetches.
///
/// Hot-path layout: the page table is an open-addressing sim::FlatMap and
/// holder sets are inline sim::SmallVecs (a page is resident on a handful of
/// nodes, not the whole cluster), so the lookup/confirm/evict cycle driven
/// by every remote fetch allocates nothing once the table is warm.

#include <algorithm>

#include "db/table.hpp"
#include "sim/flat_map.hpp"
#include "sim/small_vec.hpp"

namespace dclue::cluster {

class DirectoryService {
 public:
  /// Node ids holding a page; inline capacity covers typical sharing fanout.
  using HolderList = sim::SmallVec<int, 4>;

  struct LookupResult {
    bool has_supplier = false;
    int supplier = -1;
    HolderList invalidate;  ///< holders to invalidate (exclusive reqs)
  };

  /// Look up \p page on behalf of \p requester. The requester is recorded as
  /// an (in-flight) holder immediately so concurrent lookups can be served
  /// from it once its copy lands. For exclusive requests, all other holders
  /// are scheduled for invalidation.
  LookupResult lookup(db::PageId page, int requester, bool exclusive) {
    Entry& entry = entries_[page];
    LookupResult result;
    // Prefer the exclusive owner as supplier, else any holder.
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
      entry.exclusive_owner = requester;
    } else {
      if (std::find(entry.holders.begin(), entry.holders.end(), requester) ==
          entry.holders.end()) {
        entry.holders.push_back(requester);
      }
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
    if (std::find(entry.holders.begin(), entry.holders.end(), holder) ==
        entry.holders.end()) {
      entry.holders.push_back(holder);
    }
  }

  /// A holder evicted its copy ("if A had to evict a block ... it informs B").
  void evict(db::PageId page, int holder) {
    auto it = entries_.find(page);
    if (it == entries_.end()) return;
    HolderList& holders = it->value.holders;
    holders.truncate(static_cast<std::size_t>(
        std::remove(holders.begin(), holders.end(), holder) -
        holders.begin()));
    if (it->value.exclusive_owner == holder) it->value.exclusive_owner = -1;
    if (holders.empty()) entries_.erase_compact(it);
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
      HolderList& holders = it->value.holders;
      const auto removed = std::remove(holders.begin(), holders.end(), node);
      const bool touched = removed != holders.end() ||
                           it->value.exclusive_owner == node;
      holders.truncate(static_cast<std::size_t>(removed - holders.begin()));
      if (it->value.exclusive_owner == node) it->value.exclusive_owner = -1;
      if (touched) ++purged;
      if (holders.empty()) {
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
    int exclusive_owner = -1;
  };
  sim::FlatMap<db::PageId, Entry> entries_;
};

}  // namespace dclue::cluster
