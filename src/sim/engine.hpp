#pragma once

/// \file engine.hpp
/// Deterministic discrete-event simulation engine. Replaces the OPNET kernel
/// the paper's DCLUE model was built on. Events scheduled at equal times fire
/// in scheduling order (a monotonically increasing sequence number breaks
/// ties), so a run is a pure function of configuration and seed.
///
/// Hot-path design (see DESIGN.md §"Engine internals"): the schedule → fire →
/// recycle cycle is allocation-free in the common case. Callbacks live in a
/// pooled arena of fixed 128-byte slots with 96 bytes of inline storage
/// (large captures fall back to the heap); cancellation is a generation bump
/// on the slot, so an EventHandle is just {engine, slot index, generation}
/// and cancelled events are dropped lazily when they surface at the head of
/// the queue. The queue itself is two 4-ary heaps of 24-byte POD entries
/// ordered by one 128-bit key: one for events, one for timers that are
/// usually cancelled before they fire (timer_after).

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/flat_map.hpp"
#include "sim/inline_fn.hpp"
#include "sim/units.hpp"

namespace dclue::sim {

class Engine;

/// Domain-aware event ordering key (see DESIGN.md §"Sharded engine
/// internals"). In legacy single-domain mode the key is the plain global
/// sequence number, byte-identical to the original engine. In domain mode it
/// composes `src_domain(8) | tgt_domain(8) | per-src-domain seq(48)`, so the
/// total order (time, src, tgt, seq) is a pure function of per-domain event
/// sequences — independent of how domains are grouped into shards.
namespace event_key {
inline constexpr int kSeqBits = 48;
inline constexpr std::uint64_t kSeqMask = (std::uint64_t{1} << kSeqBits) - 1;
[[nodiscard]] inline std::uint64_t compose(std::uint32_t src, std::uint32_t tgt,
                                           std::uint64_t seq) {
  assert(src < 256 && tgt < 256 && seq <= kSeqMask);
  return (std::uint64_t{src} << 56) | (std::uint64_t{tgt} << 48) | seq;
}
[[nodiscard]] inline std::uint32_t tgt_domain(std::uint64_t key) {
  return static_cast<std::uint32_t>((key >> 48) & 0xff);
}
}  // namespace event_key

/// Routing hook for cross-domain event posting when one run is sharded
/// across several engines (sim/shard.hpp). The engine mints the ordering key
/// (it owns the per-domain sequence counters); the router decides whether the
/// target domain lives on the same engine (direct inject) or behind a
/// cross-shard mailbox.
class CrossDomainRouter {
 public:
  virtual ~CrossDomainRouter() = default;
  virtual void route(int src_shard, std::uint32_t tgt_domain, Time t,
                     std::uint64_t key, InlineFn<void()> fn) = 0;
};

/// Handle to a scheduled event; allows cancellation (e.g. TCP retransmission
/// timers that are reset on every ACK). Copies refer to the same slot
/// generation, so cancelling through any copy invalidates all of them.
/// A handle must not outlive its Engine.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancel the event if it has not fired yet. Idempotent.
  void cancel();

  /// True if the handle refers to an event that can still fire.
  [[nodiscard]] bool pending() const;

 private:
  friend class Engine;
  EventHandle(Engine* engine, std::uint32_t slot, std::uint32_t generation)
      : engine_(engine), slot_(slot), generation_(generation) {}

  Engine* engine_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};

/// The event loop. Single-threaded by design: determinism is worth more to a
/// sensitivity study than intra-run parallel speedup. Independent runs are
/// swept concurrently instead (one Engine per thread; see sweep.hpp).
class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  /// Current simulated time.
  [[nodiscard]] Time now() const { return now_; }

  /// Schedule \p fn to run at absolute time \p t (>= now()).
  template <typename F>
  EventHandle at(Time t, F&& fn);

  /// Schedule \p fn to run \p delay seconds from now.
  template <typename F>
  EventHandle after(Duration delay, F&& fn) {
    assert(delay >= 0.0);
    return at(now_ + delay, std::forward<F>(fn));
  }

  /// after() for a timer that is usually cancelled before it fires (TCP and
  /// RDMA retry timers, delayed ACKs). It fires exactly when after() would
  /// have fired it, but waits in a heap of its own, so the corpses of
  /// cancelled timers do not deepen the heap every other event goes through.
  template <typename F>
  EventHandle timer_after(Duration delay, F&& fn) {
    assert(delay >= 0.0);
    return schedule_keyed(timers_, now_ + delay, mint_local_key(),
                          std::forward<F>(fn));
  }

  /// Run until the event queue drains or simulated time reaches \p t_end.
  /// Returns the number of events executed.
  std::uint64_t run_until(Time t_end);

  /// Run until the event queue drains.
  std::uint64_t run();

  /// Total number of events executed so far.
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

  /// Number of scheduled (uncancelled) events, timers included.
  [[nodiscard]] std::size_t events_pending() const { return live_; }

  /// Monotonic per-engine id source. Model components that need ids unique
  /// within one simulation (e.g. TCP connection ids) draw them here, so runs
  /// stay identical whether they execute serially or on a sweep pool. In
  /// domain mode ids are minted per current domain (high bits carry the
  /// domain), so id streams — and everything derived from them — do not
  /// depend on how domains are grouped into shards.
  std::uint64_t allocate_id() {
    if (!domain_mode_) return next_id_++;
    return (std::uint64_t{cur_domain_ + 1} << event_key::kSeqBits) |
           domains_[cur_domain_].next_id++;
  }

  /// --- sharded-run support (sim/shard.hpp) -------------------------------
  /// Switch this engine into domain mode: ordering keys become
  /// (src_domain, tgt_domain, per-domain seq). Must be called before any
  /// event is scheduled. \p domain_count is the run-wide domain count (an
  /// engine may host any subset of the domains).
  void enable_domains(std::uint32_t domain_count, int shard_id,
                      CrossDomainRouter* router) {
    assert(next_seq_ == 0 && heap_.empty() && timers_.empty());
    assert(domain_count >= 1 && domain_count <= 255);
    domain_mode_ = true;
    shard_id_ = shard_id;
    router_ = router;
    domains_.assign(domain_count, DomainState{});
  }
  [[nodiscard]] int shard_id() const { return shard_id_; }

  /// The domain whose event is currently executing (events inherit the
  /// domain of the event that scheduled them). Component setup code that runs
  /// outside any event sets the domain explicitly (see DomainScope).
  [[nodiscard]] std::uint32_t current_domain() const { return cur_domain_; }
  void set_current_domain(std::uint32_t d) {
    assert(!domain_mode_ || d < domains_.size());
    cur_domain_ = d;
  }

  /// Schedule \p fn at absolute time \p t with a pre-minted ordering key
  /// (used when draining cross-shard mailboxes; the key was composed by the
  /// sending engine so the total order is shard-count independent).
  template <typename F>
  void inject(Time t, std::uint64_t key, F&& fn) {
    assert(t >= now_);
    schedule_keyed(heap_, t, key, std::forward<F>(fn));
  }

  /// Schedule \p fn at absolute time \p t targeting another domain. The key
  /// is minted here (src = current domain); delivery is delegated to the
  /// router, which injects directly when the target domain shares this
  /// engine and crosses a mailbox otherwise.
  void post_to_domain(std::uint32_t tgt_domain, Time t, InlineFn<void()> fn) {
    assert(domain_mode_ && router_ != nullptr);
    const std::uint64_t key = event_key::compose(
        cur_domain_, tgt_domain, domains_[cur_domain_].next_seq++);
    router_->route(shard_id_, tgt_domain, t, key, std::move(fn));
  }

  /// Run until the next event would be at or after \p t (strictly-before
  /// bound: the conservative window protocol may only execute events with
  /// time < safe horizon). Advances now() to \p t.
  std::uint64_t run_until_before(Time t);

  /// Rendezvous board: a generic key → pointer map components use to pair
  /// endpoints created on opposite sides of a connection (see
  /// proto::MsgChannel). Run-scoped (not global) so concurrent sweeps cannot
  /// observe each other. FlatMap per the hot-map convention: access is
  /// keyed-only, so rehash-moved slots are invisible to callers. The mutex
  /// guards the map against unrelated connections pairing concurrently in a
  /// sharded run; same-key operations are already ordered by the
  /// conservative window protocol, so pairing outcomes stay deterministic.
  struct Rendezvous {
    std::mutex mu;
    FlatMap<std::uint64_t, void*> map;
  };
  /// The board in use: this engine's own, or the run-wide board a sharded
  /// run's engines share (the endpoints of one connection may live on
  /// different engines there; Cluster::plan_shards points them at it).
  [[nodiscard]] Rendezvous& rendezvous() { return *rendezvous_; }
  void share_rendezvous(Rendezvous& board) { rendezvous_ = &board; }

 private:
  friend class EventHandle;

  /// Inline callback storage: most model lambdas capture a `this` pointer and
  /// a few scalars; the largest hot-path capture is a by-value net::Packet
  /// (80 bytes) plus a pointer.
  static constexpr std::size_t kInlineBytes = 96;
  static constexpr std::uint32_t kChunkSize = 256;  ///< slots per arena chunk
  static constexpr std::uint32_t kNoFree = 0xffffffff;

  /// Dispatch metadata leads so the generation check, invoke pointer and the
  /// first capture bytes of a small callback all land on the slot's first
  /// cache line; the 96-byte capture area follows at offset 32 (still
  /// max_align_t-aligned, so any inline callable is placed correctly).
  struct Slot {
    void (*invoke)(Slot&) = nullptr;   ///< null when the slot is free
    void (*destroy)(Slot&) = nullptr;  ///< null when destruction is trivial
    void* heap = nullptr;              ///< callback location if too large
    std::uint32_t generation = 0;
    std::uint32_t next_free = kNoFree;
    alignas(std::max_align_t) unsigned char storage[kInlineBytes];
  };
  static_assert(sizeof(Slot) == 128);
  static_assert(offsetof(Slot, storage) % alignof(std::max_align_t) == 0);

  /// The ordering key (time, seq) as one unsigned 128-bit number: the
  /// time's bits, then seq. A scheduled time is never negative or NaN, and
  /// schedule_keyed stores -0.0 as +0.0, so the bits of two times order
  /// exactly as the times do.
  using Key = unsigned __int128;

  /// 24-byte POD; the heaps move these, never the callbacks.
  struct QueueEntry {
    std::uint64_t time_bits;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t generation;

    [[nodiscard]] Key key() const { return (Key{time_bits} << 64) | seq; }
    [[nodiscard]] Time time() const { return std::bit_cast<Time>(time_bits); }
  };
  using Heap = std::vector<QueueEntry>;

  template <typename F, bool Inline>
  static void invoke_impl(Slot& s) {
    if constexpr (Inline) {
      (*std::launder(reinterpret_cast<F*>(s.storage)))();
    } else {
      (*static_cast<F*>(s.heap))();
    }
  }
  template <typename F, bool Inline>
  static void destroy_impl(Slot& s) {
    if constexpr (Inline) {
      std::launder(reinterpret_cast<F*>(s.storage))->~F();
    } else {
      delete static_cast<F*>(s.heap);
      s.heap = nullptr;
    }
  }

  /// Chunked so slots never move: callbacks run in place even if scheduling
  /// inside a callback grows the arena.
  [[nodiscard]] Slot& slot(std::uint32_t i) {
    return chunks_[i / kChunkSize][i % kChunkSize];
  }
  [[nodiscard]] const Slot& slot(std::uint32_t i) const {
    return chunks_[i / kChunkSize][i % kChunkSize];
  }

  std::uint32_t acquire_slot() {
    if (free_head_ != kNoFree) {
      const std::uint32_t idx = free_head_;
      free_head_ = slot(idx).next_free;
      return idx;
    }
    if (num_slots_ % kChunkSize == 0) {
      chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
    }
    return num_slots_++;
  }

  void release_slot(std::uint32_t idx) {
    Slot& s = slot(idx);
    s.invoke = nullptr;
    s.destroy = nullptr;
    s.next_free = free_head_;
    free_head_ = idx;
  }

  void cancel(std::uint32_t idx, std::uint32_t generation) {
    Slot& s = slot(idx);
    if (s.generation != generation || s.invoke == nullptr) return;
    if (s.destroy != nullptr) s.destroy(s);
    ++s.generation;  // the queue entry surfaces later and is skipped
    --live_;
    release_slot(idx);
    maybe_compact();
  }

  [[nodiscard]] bool slot_pending(std::uint32_t idx, std::uint32_t generation) const {
    return idx < num_slots_ && slot(idx).generation == generation &&
           slot(idx).invoke != nullptr;
  }

  static void heap_push(Heap& h, QueueEntry e) {
    // Hole insertion: shift ancestors down, write the entry once.
    const Key k = e.key();
    std::size_t i = h.size();
    h.push_back(e);
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!(k < h[parent].key())) break;
      h[i] = h[parent];
      i = parent;
    }
    h[i] = e;
  }

  /// The earliest of the children starting at \p first, in a heap of \p n
  /// entries. A full family is a two-round tournament with no branch: the
  /// round winners are picked by conditional moves and the final index by a
  /// mask, because which child wins is as good as random and a mispredicted
  /// branch per level costs more than the arithmetic. Only the last family
  /// of a heap can be partial.
  static std::size_t min_child(const Heap& h, std::size_t first, std::size_t n) {
    const QueueEntry* c = &h[first];
    if (first + 4 <= n) {
      const Key k0 = c[0].key(), k1 = c[1].key(), k2 = c[2].key(), k3 = c[3].key();
      const bool b01 = k1 < k0, b23 = k3 < k2;
      const std::size_t i01 = b01, i23 = 2 + std::size_t{b23};
      const std::size_t w = (b23 ? k3 : k2) < (b01 ? k1 : k0);
      return first + (i01 ^ ((i01 ^ i23) & (0 - w)));  // w ? i23 : i01
    }
    std::size_t best = 0;
    for (std::size_t j = 1; first + j < n; ++j) {
      if (c[j].key() < c[best].key()) best = j;
    }
    return first + best;
  }

  /// Sift value \p v down from position i (the slot at i is treated as free;
  /// v is taken by value because it may alias an element being overwritten).
  static void sift_down(Heap& h, std::size_t i, const QueueEntry v) {
    const std::size_t n = h.size();
    const Key k = v.key();
    for (std::size_t first = 4 * i + 1; first < n; first = 4 * i + 1) {
      const std::size_t best = min_child(h, first, n);
      if (!(h[best].key() < k)) break;
      h[i] = h[best];
      i = best;
    }
    h[i] = v;
  }

  /// Remove h[0]; the heap must be non-empty. Bottom-up variant: walk the
  /// min-child path to a leaf unconditionally, then sift the displaced last
  /// element up from the vacated leaf. The last element was itself a leaf,
  /// so the up-pass almost always stops after one comparison — cheaper than
  /// comparing it against the min child on the way down as the textbook pop
  /// does.
  static void heap_pop(Heap& h) {
    const std::size_t n = h.size() - 1;
    const QueueEntry last = h[n];
    h.pop_back();
    if (n == 0) return;
    std::size_t i = 0;
    for (std::size_t first = 1; first < n; first = 4 * i + 1) {
      const std::size_t best = min_child(h, first, n);
      h[i] = h[best];
      i = best;
    }
    const Key k = last.key();
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!(k < h[parent].key())) break;
      h[i] = h[parent];
      i = parent;
    }
    h[i] = last;
  }

  /// Cancellation is lazy (entries are dropped when they surface), so a
  /// timer-rearm-heavy workload — TCP RTO timers are cancelled on every ACK —
  /// would otherwise grow the heaps without bound and tax every sift. When
  /// the dead entries of both heaps together at least equal the live ones,
  /// filter both and re-heapify; amortized O(1) per event, and the pop order
  /// of survivors is unchanged.
  void maybe_compact() {
    const std::size_t queued = heap_.size() + timers_.size();
    if (queued < 64 || queued < 2 * live_) return;
    compact(heap_);
    compact(timers_);
  }

  void compact(Heap& h) {
    std::size_t out = 0;
    for (const QueueEntry& e : h) {
      if (slot(e.slot).generation == e.generation) h[out++] = e;
    }
    h.resize(out);
    if (out > 1) {
      for (std::size_t i = (out - 2) / 4 + 1; i-- > 0;) sift_down(h, i, h[i]);
    }
  }

  /// The heap whose head fires next (dead or alive), or null when both are
  /// empty.
  [[nodiscard]] Heap* next_queue() {
    if (timers_.empty()) return heap_.empty() ? nullptr : &heap_;
    if (heap_.empty() || timers_[0].key() < heap_[0].key()) return &timers_;
    return &heap_;
  }

  /// Pop-and-fire the head entry of \p q (already checked against the time
  /// bound).
  void fire_head(Heap& q);

  /// Ordering key for a locally-scheduled event: the plain global sequence in
  /// legacy mode (byte-identical to the original engine), the composed
  /// (src=tgt=current domain, per-domain seq) key in domain mode.
  [[nodiscard]] std::uint64_t mint_local_key() {
    if (!domain_mode_) return next_seq_++;
    return event_key::compose(cur_domain_, cur_domain_,
                              domains_[cur_domain_].next_seq++);
  }

  template <typename F>
  EventHandle schedule_keyed(Heap& q, Time t, std::uint64_t key, F&& fn);

  struct DomainState {
    std::uint64_t next_seq = 0;
    std::uint64_t next_id = 1;
  };

  Time now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t next_id_ = 1;
  std::size_t live_ = 0;
  Heap heap_;
  Heap timers_;  ///< timer_after's events
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t num_slots_ = 0;
  std::uint32_t free_head_ = kNoFree;
  Rendezvous own_rendezvous_;
  Rendezvous* rendezvous_ = &own_rendezvous_;
  bool domain_mode_ = false;
  std::uint32_t cur_domain_ = 0;
  int shard_id_ = 0;
  CrossDomainRouter* router_ = nullptr;
  std::vector<DomainState> domains_;
};

/// RAII: component construction/setup code that schedules initial events runs
/// under the domain the component belongs to.
class DomainScope {
 public:
  DomainScope(Engine& engine, std::uint32_t domain)
      : engine_(engine), prev_(engine.current_domain()) {
    engine_.set_current_domain(domain);
  }
  ~DomainScope() { engine_.set_current_domain(prev_); }
  DomainScope(const DomainScope&) = delete;
  DomainScope& operator=(const DomainScope&) = delete;

 private:
  Engine& engine_;
  std::uint32_t prev_;
};

template <typename F>
EventHandle Engine::schedule_keyed(Heap& q, Time t, std::uint64_t key, F&& fn) {
  using Fn = std::decay_t<F>;
  static_assert(std::is_invocable_v<Fn&>, "engine callbacks take no arguments");
  constexpr bool kFits =
      sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t);
  const std::uint32_t idx = acquire_slot();
  Slot& s = slot(idx);
  if constexpr (kFits) {
    ::new (static_cast<void*>(s.storage)) Fn(std::forward<F>(fn));
  } else {
    s.heap = new Fn(std::forward<F>(fn));
  }
  s.invoke = &invoke_impl<Fn, kFits>;
  // Most model callbacks capture only pointers and scalars; skip the destroy
  // call entirely for them (heap callbacks always need the delete).
  if constexpr (kFits && std::is_trivially_destructible_v<Fn>) {
    s.destroy = nullptr;
  } else {
    s.destroy = &destroy_impl<Fn, kFits>;
  }
  // + 0.0 turns -0.0 into +0.0 and leaves every other time as it is.
  const Time stored = t + 0.0;
  assert(stored >= 0.0);  // also rejects NaN
  heap_push(q, QueueEntry{std::bit_cast<std::uint64_t>(stored), key, idx,
                          s.generation});
  ++live_;
  return EventHandle{this, idx, s.generation};
}

template <typename F>
EventHandle Engine::at(Time t, F&& fn) {
  assert(t >= now_);
  return schedule_keyed(heap_, t, mint_local_key(), std::forward<F>(fn));
}

inline void EventHandle::cancel() {
  if (engine_) engine_->cancel(slot_, generation_);
}

inline bool EventHandle::pending() const {
  return engine_ && engine_->slot_pending(slot_, generation_);
}

}  // namespace dclue::sim
