#pragma once

/// \file sync.hpp
/// Awaitable coordination primitives for simulation coroutines: one-shot
/// gates, typed mailboxes, single-waiter signals, and a wait-group. Resumption
/// is deferred through the engine (never inline from the signaling site) so
/// that model code observes a consistent "events fire from the scheduler"
/// discipline and waker/wakee ordering stays deterministic.
///
/// Queue storage is sim::Ring, not std::deque: these primitives sit on the
/// per-message fast path (every channel inbox is a Mailbox), and a steady
/// push/pop stream through a deque allocates a fresh chunk every
/// ~512/sizeof(T) elements forever. The ring stops allocating once it has
/// grown to the working-set depth — a precondition for the transports'
/// zero-steady-state-allocation guarantee to survive the protocol layers
/// above them.

#include <coroutine>
#include <cstddef>
#include <optional>

#include "sim/engine.hpp"
#include "sim/ring.hpp"
#include "sim/task.hpp"

namespace dclue::sim {

namespace detail {
inline void resume_via_engine(Engine& engine, std::coroutine_handle<> h) {
  engine.after(0.0, [h] { h.resume(); });
}
}  // namespace detail

/// One-shot gate: waiters suspend until open() is called; waiting on an open
/// gate does not suspend. Used for request/response completion signalling.
class Gate {
 public:
  explicit Gate(Engine& engine) : engine_(engine) {}
  Gate(const Gate&) = delete;
  Gate& operator=(const Gate&) = delete;

  void open() {
    if (open_) return;
    open_ = true;
    while (!waiters_.empty()) {
      detail::resume_via_engine(engine_, waiters_.front());
      waiters_.pop_front();
    }
  }

  [[nodiscard]] bool is_open() const { return open_; }

  auto wait() {
    struct Awaiter {
      Gate& gate;
      bool await_ready() const noexcept { return gate.open_; }
      void await_suspend(std::coroutine_handle<> h) { gate.waiters_.push_back(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

 private:
  Engine& engine_;
  bool open_ = false;
  Ring<std::coroutine_handle<>> waiters_;
};

/// Unbounded typed queue with awaitable receive. The workhorse for message
/// delivery between protocol layers and for server request queues.
template <typename T>
class Mailbox {
 public:
  explicit Mailbox(Engine& engine) : engine_(engine) {}
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  void push(T item) {
    // Hand the item directly to the oldest waiter (if any) so that a
    // try_receive() racing with the deferred wakeup cannot steal it.
    if (!waiters_.empty()) {
      Waiter* w = waiters_.front();
      waiters_.pop_front();
      w->slot = std::move(item);
      detail::resume_via_engine(engine_, w->handle);
      return;
    }
    items_.push_back(std::move(item));
  }

  /// Awaitable receive; completes with the oldest item.
  auto receive() {
    struct Awaiter : Waiter {
      Mailbox& box;
      explicit Awaiter(Mailbox& b) : box(b) {}
      bool await_ready() const noexcept { return !box.items_.empty(); }
      void await_suspend(std::coroutine_handle<> h) {
        this->handle = h;
        box.waiters_.push_back(this);
      }
      T await_resume() {
        if (this->slot) return std::move(*this->slot);
        T item = std::move(box.items_.front());
        box.items_.pop_front();
        return item;
      }
    };
    return Awaiter{*this};
  }

  /// Non-blocking receive.
  std::optional<T> try_receive() {
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] bool empty() const { return items_.empty(); }

 private:
  struct Waiter {
    std::coroutine_handle<> handle;
    std::optional<T> slot;
  };
  Engine& engine_;
  Ring<T> items_;
  Ring<Waiter*> waiters_;
};

/// Single-waiter condition with memory: notify() wakes the waiter if one is
/// suspended, otherwise arms the signal so the next wait() returns at once.
/// Used for "more work may be available" pumps (e.g. TCP transmit loops).
class Signal {
 public:
  explicit Signal(Engine& engine) : engine_(engine) {}

  void notify() {
    if (waiter_) {
      auto h = waiter_;
      waiter_ = {};
      detail::resume_via_engine(engine_, h);
    } else {
      armed_ = true;
    }
  }

  auto wait() {
    struct Awaiter {
      Signal& sig;
      bool await_ready() {
        if (sig.armed_) {
          sig.armed_ = false;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) { sig.waiter_ = h; }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

 private:
  Engine& engine_;
  bool armed_ = false;
  std::coroutine_handle<> waiter_;
};

/// Join-point for a known number of spawned activities.
class WaitGroup {
 public:
  explicit WaitGroup(Engine& engine) : gate_(engine) {}

  void add(int n = 1) { outstanding_ += n; }
  void done() {
    if (--outstanding_ == 0) gate_.open();
  }
  auto wait() { return gate_.wait(); }

 private:
  Gate gate_;
  int outstanding_ = 0;
};

}  // namespace dclue::sim
