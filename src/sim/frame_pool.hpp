#pragma once

/// \file frame_pool.hpp
/// Size-class freelist for coroutine frames. Every simulated packet spawns
/// short-lived coroutines (`TcpStack::rx_process`, ack senders via `spawn`);
/// with the default allocator each of those is a malloc/free pair on the
/// hot path. Frames recycle through this pool instead: a frame of size n
/// maps to the 64-byte size class that covers it, frees push onto an
/// intrusive per-class freelist, and the next same-class allocation pops in
/// O(1) with no heap traffic.
///
/// The pool is thread-local, which gives two properties for free: no
/// synchronization on the fast path, and parallel sweep workers (see
/// sweep.hpp) stay fully isolated — a sweep point allocates and frees every
/// frame on its own worker, so runs cannot observe each other through the
/// allocator any more than they can through the engine.
///
/// Frames larger than the largest class (rare: a coroutine with a huge
/// local section) fall through to the global allocator. Pooled memory is
/// retained until thread exit, where the destructor returns freelisted
/// blocks to the heap (keeps LeakSanitizer clean in CI).

#include <array>
#include <cstddef>
#include <cstdint>
#include <new>

namespace dclue::sim {

class FramePool {
 public:
  /// Size classes are multiples of 64 bytes; class k (1-based) holds blocks
  /// of exactly 64*k bytes. 24 classes pool frames up to 1536 bytes, which
  /// covers every coroutine in the model with headroom (the largest today is
  /// the iSCSI data-PDU exchange at under 1 KB).
  static constexpr std::size_t kGranularity = 64;
  static constexpr std::size_t kClasses = 24;
  static constexpr std::size_t kMaxPooledBytes = kGranularity * kClasses;

  static FramePool& local() {
    thread_local FramePool pool;
    return pool;
  }

  void* allocate(std::size_t n) {
    const std::size_t cls = class_of(n);
    if (cls > kClasses) {
      ++oversize_;
      return ::operator new(n);
    }
    FreeNode*& head = free_[cls - 1];
    if (head != nullptr) {
      FreeNode* node = head;
      head = node->next;
      ++hits_;
      return node;
    }
    ++misses_;
    return ::operator new(cls * kGranularity);
  }

  void deallocate(void* p, std::size_t n) noexcept {
    const std::size_t cls = class_of(n);
    if (cls > kClasses) {
      ::operator delete(p);
      return;
    }
    auto* node = static_cast<FreeNode*>(new (p) FreeNode);
    node->next = free_[cls - 1];
    free_[cls - 1] = node;
  }

  /// --- instrumentation (the unit tests assert steady-state hits) ---------
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] std::uint64_t oversize() const { return oversize_; }
  void reset_stats() { hits_ = misses_ = oversize_ = 0; }

  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;

  ~FramePool() {
    for (FreeNode*& head : free_) {
      while (head != nullptr) {
        FreeNode* next = head->next;
        ::operator delete(static_cast<void*>(head));
        head = next;
      }
    }
  }

 private:
  FramePool() = default;

  struct FreeNode {
    FreeNode* next = nullptr;
  };
  static_assert(sizeof(FreeNode) <= kGranularity);

  /// 1-based size class covering \p n bytes (class 1 even for n == 0).
  [[nodiscard]] static constexpr std::size_t class_of(std::size_t n) {
    return n == 0 ? 1 : (n + kGranularity - 1) / kGranularity;
  }

  std::array<FreeNode*, kClasses> free_{};
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t oversize_ = 0;
};

}  // namespace dclue::sim
