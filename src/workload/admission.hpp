#pragma once

/// \file admission.hpp
/// Open-loop admission control: at most `limit` items in service; arrivals
/// beyond the limit wait in FIFO order (their queue wait counts toward the
/// measured sojourn). The arrival process itself never blocks — that is what
/// makes the client open-loop: offered load is an input, and overload shows
/// up as queue depth and sojourn growth, not as a silently throttled
/// arrival rate. The queue is a power-of-two ring, so steady state
/// allocates nothing once the working-set depth is reached.
///
/// Usage: `offer()` on arrival — kNow means the caller dispatches the item
/// immediately; on each completion call `release()`, which pops and returns
/// the next queued item (if any) for the caller to dispatch, keeping the
/// in-service count at the limit. Optionally bounded (max_queue > 0):
/// arrivals into a full queue are dropped and counted. An item that needs
/// its arrival time (for a sojourn) carries it.

#include <cstdint>
#include <optional>
#include <utility>

#include "sim/ring.hpp"

namespace dclue::workload {

enum class Admit : std::uint8_t { kNow, kQueued, kDropped };

template <typename Item>
class AdmissionQueue {
 public:
  /// \p limit: max items in service. \p max_queue 0 = unbounded FIFO.
  explicit AdmissionQueue(int limit, std::size_t max_queue = 0)
      : limit_(limit), max_queue_(max_queue) {}

  Admit offer(Item item) {
    ++arrivals_;
    if (inflight_ < limit_ && queue_.empty()) {
      ++inflight_;
      return Admit::kNow;
    }
    if (max_queue_ > 0 && queue_.size() >= max_queue_) {
      ++drops_;
      return Admit::kDropped;
    }
    queue_.emplace_back(std::move(item));
    if (queue_.size() > max_depth_) max_depth_ = queue_.size();
    return Admit::kQueued;
  }

  /// Completion: free the slot; if an item is queued, admit it (keeping the
  /// slot busy) and return it for dispatch.
  std::optional<Item> release() {
    if (queue_.empty()) {
      --inflight_;
      return std::nullopt;
    }
    Item next = std::move(queue_.front());
    queue_.pop_front();
    return next;
  }

  [[nodiscard]] int inflight() const { return inflight_; }
  [[nodiscard]] std::size_t depth() const { return queue_.size(); }
  [[nodiscard]] std::size_t max_depth() const { return max_depth_; }
  [[nodiscard]] std::uint64_t arrivals() const { return arrivals_; }
  [[nodiscard]] std::uint64_t drops() const { return drops_; }

 private:
  int limit_;
  std::size_t max_queue_;
  int inflight_ = 0;
  sim::Ring<Item> queue_;
  std::size_t max_depth_ = 0;
  std::uint64_t arrivals_ = 0;
  std::uint64_t drops_ = 0;
};

}  // namespace dclue::workload
