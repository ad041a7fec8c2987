#pragma once

/// \file flat_map.hpp
/// Open-addressing hash map for POD keys: one contiguous slot array plus a
/// control-byte array probed 16 bytes at a time, power-of-two capacity.
/// Replaces node-based std::unordered_map on the DB-tier hot paths
/// (buffer-cache residency, lock table, MVCC chains, directory entries),
/// where the per-lookup pointer chase and per-insert node allocation
/// dominated once the engine and datapath were made cheap.
///
/// Probing is group-wise (SwissTable style): each control byte is either
/// empty, tombstone, or the top 7 bits of a full slot's hash (h2). A lookup
/// compares all 16 control bytes of a group in one SIMD instruction, checks
/// the (almost always zero or one) h2 matches against the slot array, and
/// stops at the first group containing an empty byte. At the load factors
/// the DB tier runs (<= 7/8), the expected number of groups examined is
/// ~1.1, so the probe loop's exit branch is predictable — the scalar
/// one-slot-at-a-time loop this replaces mispredicted its exit roughly once
/// per lookup, which cost more than the probe itself.
///
/// Semantics required by the model code (and covered by flat_map_test.cpp):
///   - erase never moves other elements. A vacated slot is handed back as
///     *empty* whenever its group still has another empty byte (no probe
///     chain continues past such a group, so none is cut); only a completely
///     packed group takes a tombstone, which later inserts reuse and the
///     next in-place rehash flushes. Steady insert/erase churn — lock
///     release, directory evict, buffer-cache eviction — therefore leaves
///     no tombstone accumulation and never degrades into periodic rehashes;
///   - erase(iterator) returns the next occupied position, so the purge_if /
///     invalidate_if / gc "iterate and erase" loops visit every remaining
///     element exactly once;
///   - references returned by find()/operator[] stay valid until the next
///     rehashing insert (unlike unordered_map's forever-stable nodes) — the
///     call sites hold no references across inserts.
///
/// Probe accounting (`probe_stats()`) counts *groups* examined per lookup;
/// steps/ops near 1.0 means single-group probes. It feeds the
/// `db.probe_len` registry gauge; one add per lookup, invisible next to the
/// probe itself.

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace dclue::sim {

/// Multiplicative mixing for 64-bit keys. PageIds carry their table id in
/// the top bits and small page numbers at the bottom; the multiply + fold
/// spreads both into the low bits the mask keeps. Deliberately *not*
/// locality-preserving: an identity-style hash packs sequential page windows
/// into one giant probe cluster, and every absent-key lookup that lands in
/// it (resident() checks miss constantly) scans to the cluster's end.
struct FlatHash64 {
  [[nodiscard]] std::uint64_t operator()(std::uint64_t key) const {
    std::uint64_t h = key * 0x9e3779b97f4a7c15ULL;
    return h ^ (h >> 32);
  }
};

/// Cumulative probe cost of a map: `steps` 16-slot groups inspected over
/// `ops` lookups (find / insert / erase all count). steps/ops is the average
/// probe length — 1.0 means every lookup resolved in its home group.
struct ProbeStats {
  std::uint64_t steps = 0;
  std::uint64_t ops = 0;
};

namespace detail {

/// 16 control bytes compared at once. With SSE2 each match is one compare +
/// movemask; the portable fallback is a byte loop with identical semantics
/// (and is what non-x86 builds compile).
struct CtrlGroup {
  static constexpr std::size_t kSize = 16;
#if defined(__SSE2__)
  __m128i v;
  explicit CtrlGroup(const std::uint8_t* p)
      : v(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))) {}
  [[nodiscard]] std::uint32_t match(std::uint8_t b) const {
    return static_cast<std::uint32_t>(_mm_movemask_epi8(
        _mm_cmpeq_epi8(v, _mm_set1_epi8(static_cast<char>(b)))));
  }
#else
  std::uint8_t bytes[kSize];
  explicit CtrlGroup(const std::uint8_t* p) { std::memcpy(bytes, p, kSize); }
  [[nodiscard]] std::uint32_t match(std::uint8_t b) const {
    std::uint32_t m = 0;
    for (std::size_t i = 0; i < kSize; ++i) {
      m |= static_cast<std::uint32_t>(bytes[i] == b) << i;
    }
    return m;
  }
#endif
};

}  // namespace detail

template <typename Key, typename T, typename Hash = FlatHash64>
class FlatMap {
  static_assert(std::is_trivially_copyable_v<Key>,
                "FlatMap keys must be trivially copyable PODs");

  // Control byte per slot: kEmpty / kTombstone have the top bit set; a full
  // slot stores the hash's top 7 bits (h2). Probes scan this one-byte array
  // — L1-resident at DB-tier sizes — and touch the 16x bigger slot array
  // only on an h2 match, which false-positives on ~1/128 of full slots.
  static constexpr std::uint8_t kEmpty = 0x80;
  static constexpr std::uint8_t kTombstone = 0xfe;
  [[nodiscard]] static bool is_full(std::uint8_t c) { return (c & 0x80) == 0; }
  [[nodiscard]] static std::uint8_t h2_of(std::uint64_t hash) {
    return static_cast<std::uint8_t>(hash >> 57);  // top 7 bits; < 0x80
  }

  using Group = detail::CtrlGroup;
  static constexpr std::size_t kGroupSize = Group::kSize;
  static constexpr std::size_t kGroupShift = 4;
  static_assert(kGroupSize == (1u << kGroupShift));

 public:
  struct Slot {
    Key key;
    T value;
  };

  template <bool Const>
  class Iter {
    using MapPtr = std::conditional_t<Const, const FlatMap*, FlatMap*>;
    using SlotRef = std::conditional_t<Const, const Slot&, Slot&>;
    using SlotPtr = std::conditional_t<Const, const Slot*, Slot*>;

   public:
    Iter() = default;
    Iter(MapPtr m, std::size_t i) : map_(m), i_(i) { skip(); }

    [[nodiscard]] SlotRef operator*() const { return map_->slots_[i_]; }
    [[nodiscard]] SlotPtr operator->() const { return &map_->slots_[i_]; }
    Iter& operator++() {
      ++i_;
      skip();
      return *this;
    }
    [[nodiscard]] bool operator==(const Iter& o) const { return i_ == o.i_; }
    [[nodiscard]] bool operator!=(const Iter& o) const { return i_ != o.i_; }

   private:
    friend class FlatMap;
    void skip() {
      while (map_ && i_ < map_->capacity_ && !is_full(map_->ctrl_[i_])) ++i_;
    }
    MapPtr map_ = nullptr;
    std::size_t i_ = 0;
  };

  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  FlatMap() = default;
  FlatMap(const FlatMap&) = delete;
  FlatMap& operator=(const FlatMap&) = delete;
  FlatMap(FlatMap&& o) noexcept { steal(o); }
  FlatMap& operator=(FlatMap&& o) noexcept {
    if (this != &o) {
      destroy_storage();
      steal(o);
    }
    return *this;
  }
  ~FlatMap() { destroy_storage(); }

  [[nodiscard]] iterator begin() { return iterator(this, 0); }
  [[nodiscard]] iterator end() { return iterator(this, capacity_); }
  [[nodiscard]] const_iterator begin() const { return const_iterator(this, 0); }
  [[nodiscard]] const_iterator end() const { return const_iterator(this, capacity_); }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] const ProbeStats& probe_stats() const { return probes_; }

  [[nodiscard]] iterator find(const Key& key) {
    const std::size_t i = find_index(key);
    return i == kNpos ? end() : iterator(this, i);
  }
  [[nodiscard]] const_iterator find(const Key& key) const {
    const std::size_t i = find_index(key);
    return i == kNpos ? end() : const_iterator(const_cast<FlatMap*>(this), i);
  }
  [[nodiscard]] bool contains(const Key& key) const {
    return find_index(key) != kNpos;
  }

  /// Insert default-constructed value if absent; return the mapped value.
  T& operator[](const Key& key) { return try_emplace(key).first->value; }

  /// unordered_map::try_emplace semantics: no-op when the key exists.
  template <typename... Args>
  std::pair<iterator, bool> try_emplace(const Key& key, Args&&... args) {
    reserve_for_insert();
    const std::uint64_t hash = Hash{}(key);
    const std::uint8_t h2 = h2_of(hash);
    std::size_t g = (hash & mask_) >> kGroupShift;
    std::size_t tomb = kNpos;
    std::uint64_t steps = 1;
    for (;; g = (g + 1) & gmask_, ++steps) {
      const Group grp(ctrl_ + g * kGroupSize);
      std::uint32_t m = grp.match(h2);
      while (m != 0) {
        const std::size_t i =
            g * kGroupSize + static_cast<std::size_t>(std::countr_zero(m));
        if (slots_[i].key == key) {
          note_probe(steps);
          return {iterator(this, i), false};
        }
        m &= m - 1;
      }
      if (tomb == kNpos) {
        const std::uint32_t t = grp.match(kTombstone);
        if (t != 0) {
          tomb = g * kGroupSize + static_cast<std::size_t>(std::countr_zero(t));
        }
      }
      const std::uint32_t e = grp.match(kEmpty);
      if (e != 0) {  // key is absent; place at the earliest reusable slot
        note_probe(steps);
        std::size_t i;
        if (tomb != kNpos) {
          i = tomb;  // reuse the tombstone nearest the natural position
        } else {
          i = g * kGroupSize + static_cast<std::size_t>(std::countr_zero(e));
          ++filled_;
        }
        ctrl_[i] = h2;
        new (&slots_[i].key) Key(key);
        new (&slots_[i].value) T(std::forward<Args>(args)...);
        ++size_;
        return {iterator(this, i), true};
      }
    }
  }

  /// Erase by key; returns the number of elements removed (0 or 1). Never
  /// moves other elements; see the header comment for when the slot is
  /// handed back empty versus tombstoned.
  std::size_t erase(const Key& key) {
    const std::size_t i = find_index(key);
    if (i == kNpos) return 0;
    erase_slot(i);
    return 1;
  }

  /// Erase at a known position, skipping the find (release / evict paths
  /// that already hold the iterator from their lookup).
  void erase_compact(iterator it) {
    assert(it.map_ == this && is_full(ctrl_[it.i_]));
    erase_slot(it.i_);
  }

  /// Erase at \p it; returns an iterator to the next occupied slot, so
  /// iterate-and-erase loops visit every survivor exactly once.
  iterator erase(iterator it) {
    assert(it.map_ == this && is_full(ctrl_[it.i_]));
    erase_slot(it.i_);
    return iterator(this, it.i_ + 1);
  }

  void clear() {
    for (std::size_t i = 0; i < capacity_ && size_ > 0; ++i) {
      if (is_full(ctrl_[i])) {
        destroy_slot(i);
        --size_;
      }
    }
    if (ctrl_ != nullptr) std::memset(ctrl_, kEmpty, capacity_);
    size_ = 0;
    filled_ = 0;
  }

  /// Grow so that \p n elements fit without rehashing.
  void reserve(std::size_t n) {
    std::size_t want = kMinCapacity;
    while (want * 7 / 8 < n) want *= 2;
    if (want > capacity_) rehash(want);
  }

 private:
  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);
  static constexpr std::size_t kMinCapacity = kGroupSize;

  void note_probe(std::uint64_t steps) const {
    probes_.steps += steps;
    ++probes_.ops;
  }

  [[nodiscard]] std::size_t find_index(const Key& key) const {
    if (size_ == 0) {
      if (capacity_ != 0) note_probe(1);
      return kNpos;
    }
    const std::uint64_t hash = Hash{}(key);
    const std::uint8_t h2 = h2_of(hash);
    std::size_t g = (hash & mask_) >> kGroupShift;
    std::uint64_t steps = 1;
    for (;; g = (g + 1) & gmask_, ++steps) {
      const Group grp(ctrl_ + g * kGroupSize);
      std::uint32_t m = grp.match(h2);
      while (m != 0) {
        const std::size_t i =
            g * kGroupSize + static_cast<std::size_t>(std::countr_zero(m));
        if (slots_[i].key == key) {
          note_probe(steps);
          return i;
        }
        m &= m - 1;
      }
      if (grp.match(kEmpty) != 0) {
        note_probe(steps);
        return kNpos;
      }
    }
  }

  void erase_slot(std::size_t i) {
    destroy_slot(i);
    // Probes stop at the first group containing an empty byte, after
    // checking its matches. If this slot's group still has another empty
    // byte, no probe chain continues past the group, so handing the slot
    // back as empty cuts nothing. Only a completely packed group needs a
    // tombstone — at a 7/8 load cap that is a ~(7/8)^16 tail event, so
    // steady churn effectively never accumulates tombstones.
    const Group grp(ctrl_ + (i & ~(kGroupSize - 1)));
    if (grp.match(kEmpty) != 0) {
      ctrl_[i] = kEmpty;
      --filled_;
    } else {
      ctrl_[i] = kTombstone;
    }
    --size_;
  }

  void destroy_slot(std::size_t i) {
    slots_[i].key.~Key();
    slots_[i].value.~T();
  }

  void reserve_for_insert() {
    if (capacity_ == 0) {
      rehash(kMinCapacity);
      return;
    }
    // Load cap of 7/8 over non-empty slots (occupied + tombstones): inserts
    // that recycle tombstones never trip this, so steady churn stays put.
    if ((filled_ + 1) * 8 > capacity_ * 7) {
      // Grow only when live entries justify it; otherwise rehash in place to
      // flush accumulated tombstones.
      const std::size_t want =
          (size_ + 1) * 8 > capacity_ * 7 / 2 ? capacity_ * 2 : capacity_;
      rehash(want);
    }
  }

  /// Hint the kernel to back a large array with huge pages. Tables at
  /// directory scale span megabytes; on 4 KiB pages every cold probe risks
  /// a dTLB miss and page walk on top of its cache miss, and with THP in
  /// madvise mode (the common server default) nothing opts in for us.
  static void advise_huge(void* p, std::size_t bytes) {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
    if (bytes < (2u << 20)) return;
    const std::uintptr_t addr = reinterpret_cast<std::uintptr_t>(p);
    const std::uintptr_t lo = (addr + 4095) & ~std::uintptr_t{4095};
    const std::uintptr_t hi = (addr + bytes) & ~std::uintptr_t{4095};
    if (hi > lo) ::madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_HUGEPAGE);
#else
    (void)p;
    (void)bytes;
#endif
  }

  void rehash(std::size_t new_capacity) {
    std::uint8_t* old_ctrl = ctrl_;
    Slot* old_slots = slots_;
    const std::size_t old_capacity = capacity_;

    ctrl_ = static_cast<std::uint8_t*>(::operator new(new_capacity));
    advise_huge(ctrl_, new_capacity);
    std::memset(ctrl_, kEmpty, new_capacity);
    slots_ = static_cast<Slot*>(::operator new(
        new_capacity * sizeof(Slot), std::align_val_t{alignof(Slot)}));
    advise_huge(slots_, new_capacity * sizeof(Slot));
    capacity_ = new_capacity;
    mask_ = new_capacity - 1;
    gmask_ = (new_capacity >> kGroupShift) - 1;
    filled_ = size_;

    for (std::size_t i = 0; i < old_capacity; ++i) {
      if (!is_full(old_ctrl[i])) continue;
      const std::uint64_t hash = Hash{}(old_slots[i].key);
      std::size_t g = (hash & mask_) >> kGroupShift;
      std::size_t j;
      for (;; g = (g + 1) & gmask_) {
        const Group grp(ctrl_ + g * kGroupSize);
        const std::uint32_t e = grp.match(kEmpty);
        if (e != 0) {
          j = g * kGroupSize + static_cast<std::size_t>(std::countr_zero(e));
          break;
        }
      }
      ctrl_[j] = h2_of(hash);
      new (&slots_[j].key) Key(old_slots[i].key);
      new (&slots_[j].value) T(std::move(old_slots[i].value));
      old_slots[i].key.~Key();
      old_slots[i].value.~T();
    }
    if (old_ctrl != nullptr) {
      ::operator delete(old_ctrl);
      ::operator delete(old_slots, std::align_val_t{alignof(Slot)});
    }
  }

  void destroy_storage() {
    if (ctrl_ == nullptr) return;
    for (std::size_t i = 0; i < capacity_; ++i) {
      if (is_full(ctrl_[i])) destroy_slot(i);
    }
    ::operator delete(ctrl_);
    ::operator delete(slots_, std::align_val_t{alignof(Slot)});
    ctrl_ = nullptr;
    slots_ = nullptr;
    capacity_ = 0;
    mask_ = 0;
    gmask_ = 0;
    size_ = 0;
    filled_ = 0;
  }

  void steal(FlatMap& o) {
    ctrl_ = std::exchange(o.ctrl_, nullptr);
    slots_ = std::exchange(o.slots_, nullptr);
    capacity_ = std::exchange(o.capacity_, 0);
    mask_ = std::exchange(o.mask_, 0);
    gmask_ = std::exchange(o.gmask_, 0);
    size_ = std::exchange(o.size_, 0);
    filled_ = std::exchange(o.filled_, 0);
    probes_ = std::exchange(o.probes_, ProbeStats{});
  }

  std::uint8_t* ctrl_ = nullptr;
  Slot* slots_ = nullptr;
  std::size_t capacity_ = 0;
  std::size_t mask_ = 0;
  std::size_t gmask_ = 0;  ///< group count - 1
  std::size_t size_ = 0;
  std::size_t filled_ = 0;  ///< occupied + tombstoned slots
  mutable ProbeStats probes_;
};

}  // namespace dclue::sim
