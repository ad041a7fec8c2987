#pragma once

/// \file buffer_cache.hpp
/// Per-node buffer cache. The database content lives once in memory (see
/// tpcc_schema.hpp); what the cache tracks is *residency and coherence
/// state* of pages at each node — exactly DCLUE's approach ("since the
/// entire database is sitting in the main memory, buffer cache operations
/// merely change status of the pages in question"). Hit ratios are an
/// output of this machinery, never an input.
///
/// Layout (see DESIGN.md §"DB-tier internals"): 16-byte entries live in
/// one contiguous slab threaded by one intrusive index list, the recency
/// list (front = coldest). Eviction pops its head in O(1); `lru_evict_scans`
/// counts entries examined per eviction (always 1) so a regression to
/// scanning shows up in the registry. The page→slab map is an
/// open-addressing sim::FlatMap whose value is `slab index << 1 |
/// exclusive`, so contains() reads the map alone and touch / insert-hit is
/// one probe and a few index writes, no allocation.
///
/// Memory follows residency, not capacity: a node's capacity is a share of
/// the whole database, but it holds only the pages its partition touches
/// (at 729 warehouses, ~21 k of a 370 k-page capacity). The slab grows as a
/// vector, and the map reserves twice the resident count whenever it passes
/// 7/16 full, so a lookup stays a one-group probe. Prewarm, which knows how
/// many pages it will insert, sizes the map once by the same rule
/// (reserve).

#include <cassert>
#include <cstdint>
#include <vector>

#include "db/table.hpp"
#include "sim/flat_map.hpp"
#include "sim/obs/stats.hpp"
#include "sim/small_vec.hpp"

namespace dclue::db {

/// Coherence state of a locally cached page (MESI-like but directory-based;
/// exclusive = this node may produce new versions of the page's rows).
enum class PageMode : std::uint8_t { kShared = 0, kExclusive = 1 };

class BufferCache {
 public:
  /// Pages evicted by one insert; sized for the common single eviction.
  using EvictedList = sim::SmallVec<PageId, 4>;

  explicit BufferCache(std::size_t capacity_pages) : capacity_(capacity_pages) {}

  /// Is \p page resident with at least \p mode?
  [[nodiscard]] bool contains(PageId page, PageMode mode) const {
    auto it = map_.find(page);
    if (it == map_.end()) return false;
    return mode == PageMode::kShared || (it->value & kExclusiveBit) != 0;
  }
  [[nodiscard]] bool resident(PageId page) const { return map_.contains(page); }

  /// Record a fetched page; LRU-evicts to make room. Evicted pages are
  /// returned so the coherence layer can notify their directory.
  EvictedList insert(PageId page, PageMode mode);

  /// Size the map for \p n resident pages at once by insert's own rule
  /// (twice the count, so at most 7/16 full): n distinct inserts into an
  /// empty cache then rehash nothing. The slab keeps growing as a vector.
  void reserve(std::size_t n) { map_.reserve(2 * n); }

  /// Invalidate (remote node took exclusive ownership).
  bool invalidate(PageId page) {
    auto it = map_.find(page);
    if (it == map_.end()) return false;
    drop_entry(slab_index(it->value));
    map_.erase_compact(it);
    return true;
  }

  /// Invalidate every resident page matching \p pred (crash cleanup: drop
  /// pages whose directory home died — the restarted directory is empty, so
  /// stale residency must not outlive it). Returns pages dropped.
  template <typename Pred>
  std::size_t invalidate_if(Pred pred) {
    std::size_t dropped = 0;
    for (auto it = map_.begin(); it != map_.end();) {
      if (pred(it->key)) {
        drop_entry(slab_index(it->value));
        it = map_.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
    return dropped;
  }

  /// Mark recently used.
  void touch(PageId page) {
    auto it = map_.find(page);
    if (it == map_.end()) return;
    lru_.move_to_tail(slab_, slab_index(it->value));
  }

  /// Give up the \p n coldest pages to the version overflow area (the paper:
  /// "unpinned pages from the buffer cache are stolen to replenish it").
  /// Returns the stolen pages; capacity shrinks accordingly.
  EvictedList steal_for_versions(std::size_t n);

  /// Return previously stolen capacity (version GC freed space).
  void restore_capacity(std::size_t n) { capacity_ += n; }

  [[nodiscard]] std::size_t size() const { return map_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Slots in the page map (grows by rehashing; reserve() pre-sizes it).
  [[nodiscard]] std::size_t map_slots() const { return map_.capacity(); }

  /// Entries examined across all evictions (the `db.lru_evict_scans` probe:
  /// it advances by exactly 1 per eviction).
  [[nodiscard]] obs::Counter& evict_scans() { return evict_scans_; }
  [[nodiscard]] const sim::ProbeStats& probe_stats() const {
    return map_.probe_stats();
  }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;
  /// Low bit of a map value: the page is held exclusively.
  static constexpr std::uint32_t kExclusiveBit = 1;

  [[nodiscard]] static std::uint32_t slab_index(std::uint32_t value) {
    return value >> 1;
  }

  struct Entry {
    PageId page = 0;
    std::uint32_t prev = kNil, next = kNil;  ///< recency list
  };
  static_assert(sizeof(Entry) == 16, "a slab entry is 16 bytes");

  /// The intrusive doubly-linked recency list through the slab.
  struct List {
    std::uint32_t head = kNil, tail = kNil;

    void push_tail(std::vector<Entry>& slab, std::uint32_t idx) {
      slab[idx].prev = tail;
      slab[idx].next = kNil;
      if (tail == kNil) {
        head = idx;
      } else {
        slab[tail].next = idx;
      }
      tail = idx;
    }
    void unlink(std::vector<Entry>& slab, std::uint32_t idx) {
      Entry& e = slab[idx];
      if (e.prev == kNil) {
        head = e.next;
      } else {
        slab[e.prev].next = e.next;
      }
      if (e.next == kNil) {
        tail = e.prev;
      } else {
        slab[e.next].prev = e.prev;
      }
      e.prev = kNil;
      e.next = kNil;
    }
    void move_to_tail(std::vector<Entry>& slab, std::uint32_t idx) {
      if (tail == idx) return;
      unlink(slab, idx);
      push_tail(slab, idx);
    }
  };

  /// Pop the least recently used page; returns 0 when the cache is empty.
  PageId evict_one();

  /// Unlink \p idx from the recency list and recycle the slab slot (the map
  /// entry is the caller's to erase).
  void drop_entry(std::uint32_t idx) {
    lru_.unlink(slab_, idx);
    free_.push_back(idx);
  }

  std::uint32_t alloc_entry(PageId page) {
    if (free_.empty()) {
      slab_.push_back(Entry{page});
      return static_cast<std::uint32_t>(slab_.size() - 1);
    }
    const std::uint32_t idx = free_.back();
    free_.pop_back();
    slab_[idx] = Entry{page};
    return idx;
  }

  std::size_t capacity_;
  /// page → slab index << 1 | exclusive bit
  sim::FlatMap<PageId, std::uint32_t> map_;
  std::vector<Entry> slab_;
  std::vector<std::uint32_t> free_;
  List lru_;  ///< head = coldest resident
  obs::Counter evict_scans_;
};

inline BufferCache::EvictedList BufferCache::insert(PageId page, PageMode mode) {
  EvictedList evicted;
  const std::uint32_t exclusive =
      mode == PageMode::kExclusive ? kExclusiveBit : 0;
  auto [it, inserted] = map_.try_emplace(page, 0);
  if (!inserted) {
    // Resident: one probe covers the hit — upgrade in place and re-rank.
    it->value |= exclusive;
    lru_.move_to_tail(slab_, slab_index(it->value));
    return evicted;
  }
  // Store the map value while `it` is valid: the reserve below can rehash.
  const std::uint32_t idx = alloc_entry(page);
  assert(idx <= slab_index(kNil));
  it->value = idx << 1 | exclusive;
  // Grow with residency: twice the resident count keeps the map under 7/16
  // full, where nearly every lookup ends in its home group.
  if (map_.size() * 16 > map_.capacity() * 7) map_.reserve(2 * map_.size());
  while (map_.size() > capacity_) {
    PageId victim = evict_one();  // never the new page: it is list-linked below
    if (victim == 0) break;  // nothing else resident (capacity 0)
    evicted.push_back(victim);
  }
  lru_.push_tail(slab_, idx);
  return evicted;
}

inline PageId BufferCache::evict_one() {
  const std::uint32_t idx = lru_.head;
  if (idx == kNil) return 0;
  evict_scans_.record();
  const PageId victim = slab_[idx].page;
  drop_entry(idx);
  map_.erase(victim);
  return victim;
}

inline BufferCache::EvictedList BufferCache::steal_for_versions(std::size_t n) {
  EvictedList stolen;
  while (stolen.size() < n && capacity_ > 1) {
    PageId victim = evict_one();
    if (victim == 0) break;
    --capacity_;
    stolen.push_back(victim);
  }
  return stolen;
}

}  // namespace dclue::db
