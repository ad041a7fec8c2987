#pragma once

/// \file inline_fn.hpp
/// Small-buffer-only callable. `std::function` on the per-segment path
/// (NIC rx handler, TCP rx handler) costs a potential heap allocation at
/// assignment and a double indirection per call; every callable actually
/// installed there captures a pointer or two. InlineFn
/// reuses the engine arena's inline-callback technique (DESIGN.md §"Engine
/// internals") as a standalone type: the callable lives in a fixed inline
/// buffer, invocation is one indirect call, and there is no heap fallback —
/// a capture that outgrows the buffer is a compile error, not a silent
/// allocation (the capacity rule: raise Capacity at the member that needs
/// it, and only there).

#include <cstddef>
#include <cstdlib>
#include <new>
#include <type_traits>
#include <utility>

namespace dclue::sim {

template <typename Signature, std::size_t Capacity = 96>
class InlineFn;

template <typename R, typename... Args, std::size_t Capacity>
class InlineFn<R(Args...), Capacity> {
 public:
  InlineFn() = default;
  InlineFn(std::nullptr_t) {}  // NOLINT: match std::function conversions

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFn> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InlineFn(F&& fn) {  // NOLINT: implicit, like std::function
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= Capacity,
                  "capture too large for InlineFn — raise Capacity at this "
                  "member (see DESIGN.md, datapath capacity rule)");
    static_assert(alignof(Fn) <= alignof(std::max_align_t));
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
    invoke_ = &invoke_impl<Fn>;
    ops_ = &ops_for<Fn>;
  }

  InlineFn(const InlineFn& other) { copy_from(other); }
  InlineFn(InlineFn&& other) noexcept { move_from(other); }
  InlineFn& operator=(const InlineFn& other) {
    if (this != &other) {
      reset();
      copy_from(other);
    }
    return *this;
  }
  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  ~InlineFn() { reset(); }

  void reset() {
    if (ops_ != nullptr) ops_->destroy(storage_);
    invoke_ = nullptr;
    ops_ = nullptr;
  }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

  R operator()(Args... args) const {
    return invoke_(storage_, std::forward<Args>(args)...);
  }

 private:
  struct Ops {
    void (*copy)(unsigned char* dst, const unsigned char* src);
    void (*move)(unsigned char* dst, unsigned char* src);
    void (*destroy)(unsigned char* p);
  };

  template <typename Fn>
  static R invoke_impl(unsigned char* p, Args... args) {
    return (*std::launder(reinterpret_cast<Fn*>(p)))(
        std::forward<Args>(args)...);
  }

  template <typename Fn>
  static constexpr Ops ops_for = {
      /*copy=*/[](unsigned char* dst, const unsigned char* src) {
        if constexpr (std::is_copy_constructible_v<Fn>) {
          ::new (static_cast<void*>(dst))
              Fn(*std::launder(reinterpret_cast<const Fn*>(src)));
        } else {
          (void)dst;
          (void)src;
          std::abort();  // copying an InlineFn holding a move-only callable
        }
      },
      /*move=*/
      [](unsigned char* dst, unsigned char* src) {
        ::new (static_cast<void*>(dst))
            Fn(std::move(*std::launder(reinterpret_cast<Fn*>(src))));
        std::launder(reinterpret_cast<Fn*>(src))->~Fn();
      },
      /*destroy=*/
      [](unsigned char* p) { std::launder(reinterpret_cast<Fn*>(p))->~Fn(); },
  };

  void copy_from(const InlineFn& other) {
    if (other.ops_ == nullptr) return;
    other.ops_->copy(storage_, other.storage_);
    invoke_ = other.invoke_;
    ops_ = other.ops_;
  }
  void move_from(InlineFn& other) noexcept {
    if (other.ops_ == nullptr) return;
    other.ops_->move(storage_, other.storage_);
    invoke_ = other.invoke_;
    ops_ = other.ops_;
    other.invoke_ = nullptr;
    other.ops_ = nullptr;
  }

  alignas(std::max_align_t) mutable unsigned char storage_[Capacity];
  R (*invoke_)(unsigned char*, Args...) = nullptr;
  const Ops* ops_ = nullptr;
};

}  // namespace dclue::sim
