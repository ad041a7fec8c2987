#pragma once

/// \file shard.hpp
/// Conservative parallel DES: one run's event space partitioned into shards,
/// each driving its own Engine (in domain mode) on its own worker thread,
/// synchronized by link-latency lookahead (DESIGN.md §"Sharded engine
/// internals"). A shard may safely execute events strictly before
/// `min over in-edges (neighbor horizon + lookahead)`; the only cross-shard
/// interactions are posted envelopes whose delay is at least the edge's
/// lookahead, so the protocol is deadlock-free (the shard holding the global
/// minimum clock can always advance by at least the minimum lookahead) and
/// the per-shard event sequences are independent of thread scheduling.
///
/// Determinism: ordering keys are minted per *domain* (the finest fixed
/// partition — see engine.hpp event_key), shards are groups of domains, and
/// cross-shard envelopes carry the sender-minted key. The per-shard pop order
/// is the restriction of one global (time, src, tgt, seq) order, so results
/// are identical for any shard count and for serial vs parallel stepping.

#include <atomic>
#include <cassert>
#include <cstdint>
#include <limits>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/inline_fn.hpp"
#include "sim/units.hpp"

namespace dclue::sim {

/// One cross-shard event: fires `fn` at `time` on the receiving shard's
/// engine, ordered by the sender-minted `key`.
struct ShardEnvelope {
  Time time = 0.0;
  std::uint64_t key = 0;
  InlineFn<void()> fn;
};

/// Unbounded single-producer/single-consumer queue with a producer-side node
/// cache (Vyukov's algorithm): the consumer's tail advance releases spent
/// nodes back to the producer, so after the warm-up transient a mailbox that
/// has reached its working-set depth never allocates again — the envelope
/// "pool" is the recycled node chain itself.
template <typename T>
class SpscQueue {
 public:
  SpscQueue() {
    Node* stub = new Node;
    ++allocated_;
    head_ = stub;
    first_ = stub;
    tail_copy_ = stub;
    tail_.store(stub, std::memory_order_relaxed);
  }
  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;
  ~SpscQueue() {
    Node* n = first_;
    while (n != nullptr) {
      Node* next = n->next.load(std::memory_order_relaxed);
      delete n;
      n = next;
    }
  }

  /// Producer side.
  void push(T v) {
    Node* n = alloc_node();
    n->value = std::move(v);
    n->next.store(nullptr, std::memory_order_relaxed);
    head_->next.store(n, std::memory_order_release);
    head_ = n;
    size_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Consumer side. Returns false when empty.
  bool pop(T& out) {
    Node* t = tail_.load(std::memory_order_relaxed);
    Node* next = t->next.load(std::memory_order_acquire);
    if (next == nullptr) return false;
    out = std::move(next->value);
    tail_.store(next, std::memory_order_release);
    size_.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }

  /// Consumer side: the front element without dequeuing (null when empty).
  /// Valid until pop_front(); the producer never touches published nodes.
  [[nodiscard]] T* peek() {
    Node* next = tail_.load(std::memory_order_relaxed)
                     ->next.load(std::memory_order_acquire);
    return next != nullptr ? &next->value : nullptr;
  }

  /// Consumer side: drop the front element (must exist, e.g. after peek()).
  void pop_front() {
    Node* t = tail_.load(std::memory_order_relaxed);
    Node* next = t->next.load(std::memory_order_acquire);
    assert(next != nullptr);
    next->value = T{};
    tail_.store(next, std::memory_order_release);
    size_.fetch_sub(1, std::memory_order_relaxed);
  }

  /// Approximate (racy across threads; exact when quiescent).
  [[nodiscard]] std::size_t size() const {
    return size_.load(std::memory_order_relaxed);
  }
  /// Total nodes ever heap-allocated — flat once the recycle chain covers the
  /// working-set depth (the mailbox unit test and alloc gates key on this).
  [[nodiscard]] std::uint64_t nodes_allocated() const { return allocated_; }

 private:
  struct Node {
    std::atomic<Node*> next{nullptr};
    T value{};
  };

  Node* alloc_node() {
    if (first_ != tail_copy_) return take_first();
    tail_copy_ = tail_.load(std::memory_order_acquire);
    if (first_ != tail_copy_) return take_first();
    ++allocated_;
    return new Node;
  }
  Node* take_first() {
    Node* n = first_;
    first_ = n->next.load(std::memory_order_relaxed);
    return n;
  }

  // Producer-owned.
  alignas(64) Node* head_;
  Node* first_;       ///< oldest node in the recycle chain
  Node* tail_copy_;   ///< producer's snapshot of tail_
  std::uint64_t allocated_ = 0;
  // Consumer-advanced.
  alignas(64) std::atomic<Node*> tail_;
  std::atomic<std::size_t> size_{0};
};

/// How one run is split. `shard_of_domain[d]` maps every domain to a shard;
/// `parallel=false` runs the identical window protocol round-robin on the
/// calling thread (the bit-identity baseline for the parallel mode).
struct ShardPlan {
  int shards = 1;
  bool parallel = true;
  std::vector<int> shard_of_domain;  ///< size = domain count (1..255)
};

class ShardSet final : public CrossDomainRouter {
 public:
  explicit ShardSet(ShardPlan plan);
  ~ShardSet() override = default;

  [[nodiscard]] int shards() const { return shards_; }
  [[nodiscard]] int domain_count() const {
    return static_cast<int>(shard_of_domain_.size());
  }
  [[nodiscard]] int shard_of_domain(int d) const { return shard_of_domain_[d]; }
  [[nodiscard]] Engine& engine(int s) { return *engines_[s]; }
  [[nodiscard]] Engine& engine_of_domain(int d) {
    return *engines_[shard_of_domain_[d]];
  }

  /// Register a lookahead constraint: envelopes from \p src_domain to
  /// \p tgt_domain are delayed by at least \p la. Call once per boundary link
  /// at topology build, then finalize(). Intra-shard pairs are ignored.
  void add_lookahead(int src_domain, int tgt_domain, Duration la);

  /// Build in-edge lists. Every directed shard pair that ever exchanges an
  /// envelope must have a strictly positive lookahead registered.
  void finalize();

  /// Advance every shard to \p cap, inclusive: events strictly before cap run
  /// under the window protocol (parallel or serial per the plan); events at
  /// exactly cap run single-threaded in shard order, matching
  /// Engine::run_until semantics at a phase boundary.
  void advance_all_to(Time cap);

  /// Total events executed across all shards.
  [[nodiscard]] std::uint64_t events_executed() const;

  // CrossDomainRouter: same-shard targets inject directly, others cross the
  // (src shard, tgt shard) mailbox. The caller is whichever thread currently
  // runs shard `src_shard`'s engine, so each mailbox has one producer.
  void route(int src_shard, std::uint32_t tgt_domain, Time t,
             std::uint64_t key, InlineFn<void()> fn) override;

  /// Per-shard runtime diagnostics (wall-clock, schedule-dependent — excluded
  /// from bit-identity comparisons; see scripts/bench_compare.py).
  struct ShardStats {
    std::uint64_t windows = 0;        ///< conservative windows executed
    std::uint64_t blocked_spins = 0;  ///< safe-horizon checks that made no progress
    double blocked_seconds = 0.0;     ///< wall time spent waiting on neighbors
    std::uint64_t envelopes_out = 0;  ///< cross-shard envelopes posted
    std::uint64_t envelopes_in = 0;   ///< envelopes drained into the engine
    std::uint64_t max_mailbox_depth = 0;  ///< deepest inbound backlog observed
    double max_horizon_lead = 0.0;    ///< how far ahead of slowest neighbor
    std::uint64_t mailbox_nodes = 0;  ///< pooled envelope nodes allocated
  };
  [[nodiscard]] const ShardStats& stats(int s) const { return rt_[s].stats; }

 private:
  struct InEdge {
    int from;
    Duration lookahead;
  };
  struct ShardRt {
    std::vector<InEdge> in_edges;
    ShardStats stats;
  };

  [[nodiscard]] SpscQueue<ShardEnvelope>& mailbox(int from, int to) {
    return *mail_[static_cast<std::size_t>(from) * shards_ + to];
  }
  void drain(int s);
  void worker(int s, Time cap);
  void serial_advance(Time cap);

  int shards_;
  bool parallel_;
  bool finalized_ = false;
  int spin_limit_ = 0;  ///< pre-sleep spin budget; 0 when cores <= shards
  std::vector<int> shard_of_domain_;
  std::vector<std::unique_ptr<Engine>> engines_;
  std::vector<std::unique_ptr<SpscQueue<ShardEnvelope>>> mail_;  ///< [from*S+to]
  std::vector<Duration> lookahead_;  ///< [from*S+to], infinity = no edge
  std::vector<std::unique_ptr<std::atomic<Time>>> horizon_;
  std::vector<ShardRt> rt_;
};

}  // namespace dclue::sim
