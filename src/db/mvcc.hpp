#pragma once

/// \file mvcc.hpp
/// Multi-version concurrency control accounting, per the paper's §2.3:
/// timestamp-based versions tracking minimum / maximum / current version
/// numbers per sub-page, with version space drawn from an overflow memory
/// area that steals unpinned buffer-cache pages when it runs low. Reads
/// never lock; they walk the version chain to their snapshot. Version
/// *content* is not duplicated (the row store keeps the current image);
/// the chain length and space pressure are what shape performance.

#include <cstdint>
#include <vector>

#include "db/buffer_cache.hpp"
#include "db/table.hpp"
#include "sim/flat_map.hpp"
#include "sim/obs/stats.hpp"
#include "sim/small_vec.hpp"

namespace dclue::db {

using Timestamp = std::uint64_t;

class VersionManager {
 public:
  VersionManager(sim::Bytes overflow_capacity, BufferCache& cache)
      : capacity_(overflow_capacity), cache_(cache) {}

  /// Record a new version of (page, subpage) of \p bytes at commit time \p ts.
  void create_version(PageId page, int subpage, Timestamp ts, sim::Bytes bytes) {
    const LockName name = lock_name(page, subpage);
    auto& chain = chains_[name];
    chain.push_back(ts);
    if (chain.size() == 2) multi_.push_back(name);
    in_use_ += bytes;
    while (in_use_ > capacity_) {
      // Steal an unpinned buffer page into the overflow area.
      auto stolen = cache_.steal_for_versions(1);
      if (stolen.empty()) break;
      capacity_ += kPageBytes;
      pages_stolen_.record();
    }
  }

  /// Number of versions a reader at \p snapshot must skip to find its image
  /// (drives the read-path cost of versioning). Versions append in commit
  /// order, so the chain is sorted: count the suffix > snapshot by binary
  /// search instead of walking it — old snapshots against long chains would
  /// otherwise touch every entry.
  [[nodiscard]] int chain_hops(PageId page, int subpage, Timestamp snapshot) const {
    auto it = chains_.find(lock_name(page, subpage));
    if (it == chains_.end()) return 0;
    const Chain& chain = it->value;
    const Timestamp* base = chain.begin();
    std::size_t len = chain.size();
    if (len == 0) return 0;
    while (len > 1) {  // branchless upper_bound, like the B-tree searches
      const std::size_t half = len >> 1;
      base += base[half - 1] <= snapshot ? half : 0;
      len -= half;
    }
    const std::size_t leq = static_cast<std::size_t>(base - chain.begin()) +
                            (base[0] <= snapshot ? 1 : 0);
    return static_cast<int>(chain.size() - leq);
  }

  [[nodiscard]] Timestamp current_version(PageId page, int subpage) const {
    auto it = chains_.find(lock_name(page, subpage));
    return (it == chains_.end() || it->value.empty()) ? 0 : it->value.back();
  }

  /// Drop versions no active snapshot can see (keeps the newest of each
  /// chain). Returns bytes reclaimed; stolen cache pages are handed back.
  /// Only a chain holding two or more versions can lose one, so the sweep
  /// visits just those (`multi_`) and keeps the ones still above one; a
  /// chain never empties, so none is erased.
  sim::Bytes gc(Timestamp min_active, sim::Bytes bytes_per_version) {
    sim::Bytes freed = 0;
    std::size_t kept = 0;
    for (const LockName name : multi_) {
      Chain& chain = chains_.find(name)->value;
      while (chain.size() > 1 && chain.front() < min_active &&
             chain[1] <= min_active) {
        chain.erase_at(0);
        freed += bytes_per_version;
      }
      if (chain.size() > 1) multi_[kept++] = name;
    }
    multi_.resize(kept);
    in_use_ -= std::min(freed, in_use_);
    while (pages_stolen_.count() > pages_returned_.count() &&
           capacity_ > kPageBytes &&
           in_use_ < capacity_ - 2 * kPageBytes) {
      capacity_ -= kPageBytes;
      cache_.restore_capacity(1);
      pages_returned_.record();
    }
    return freed;
  }

  [[nodiscard]] sim::Bytes capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t cache_pages_stolen() const {
    return pages_stolen_.count();
  }
  [[nodiscard]] const sim::ProbeStats& probe_stats() const {
    return chains_.probe_stats();
  }

 private:
  /// Commit timestamps, newest last; short chains stay inline (GC keeps
  /// chains near length 1, so the heap spill is the pathological case).
  using Chain = sim::SmallVec<Timestamp, 4>;

  sim::Bytes capacity_;
  BufferCache& cache_;
  sim::FlatMap<LockName, Chain> chains_;
  /// Names of the chains holding two or more versions, each once.
  std::vector<LockName> multi_;
  sim::Bytes in_use_ = 0;
  obs::Counter pages_stolen_;
  obs::Counter pages_returned_;
};

}  // namespace dclue::db
