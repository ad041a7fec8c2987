#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <random>
#include <utility>
#include <vector>

namespace dclue::sim {
namespace {

TEST(Engine, StartsAtTimeZero) {
  Engine e;
  EXPECT_EQ(e.now(), 0.0);
}

TEST(Engine, ExecutesEventsInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.after(2.0, [&] { order.push_back(2); });
  e.after(1.0, [&] { order.push_back(1); });
  e.after(3.0, [&] { order.push_back(3); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 3.0);
}

// after, timer_after and at take their places by schedule order alike,
// although timers wait in a heap of their own.
TEST(Engine, SameTimeEventsFireInSchedulingOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    auto fn = [&order, i] { order.push_back(i); };
    if (i % 3 == 0) {
      e.after(1.0, fn);
    } else if (i % 3 == 1) {
      e.timer_after(1.0, fn);
    } else {
      e.at(1.0, fn);
    }
  }
  e.timer_after(0.5, [&order] { order.push_back(-1); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(Engine, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Engine e;
  int fired = 0;
  e.after(1.0, [&] { ++fired; });
  e.after(5.0, [&] { ++fired; });
  e.run_until(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.now(), 2.0);
  e.run_until(10.0);
  EXPECT_EQ(fired, 2);
}

TEST(Engine, EventsScheduledDuringRunExecute) {
  Engine e;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) e.after(1.0, recurse);
  };
  e.after(1.0, recurse);
  e.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(e.now(), 5.0);
}

TEST(Engine, CancelledEventDoesNotFire) {
  Engine e;
  int fired = 0;
  auto h = e.after(1.0, [&] { ++fired; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  e.run();
  EXPECT_EQ(fired, 0);
}

TEST(Engine, CancelIsIdempotentAndSafeAfterFire) {
  Engine e;
  int fired = 0;
  auto h = e.after(1.0, [&] { ++fired; });
  e.run();
  EXPECT_EQ(fired, 1);
  h.cancel();  // no effect, no crash
  h.cancel();
  EXPECT_EQ(fired, 1);
}

TEST(Engine, DefaultConstructedHandleIsInert) {
  EventHandle h;
  EXPECT_FALSE(h.pending());
  h.cancel();
}

TEST(Engine, CountsExecutedEvents) {
  Engine e;
  for (int i = 0; i < 7; ++i) e.after(i, [] {});
  e.run();
  EXPECT_EQ(e.events_executed(), 7u);
}

TEST(Engine, ZeroDelayEventRunsAtCurrentTime) {
  Engine e;
  e.after(1.0, [&] {
    e.after(0.0, [&] { EXPECT_EQ(e.now(), 1.0); });
  });
  e.run();
}

TEST(Engine, CancelOneOfManySameTimeEventsPreservesOrder) {
  Engine e;
  std::vector<int> order;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 8; ++i) {
    handles.push_back(e.after(1.0, [&order, i] { order.push_back(i); }));
  }
  handles[3].cancel();
  handles[6].cancel();
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 4, 5, 7}));
}

// A stale handle whose arena slot has been recycled by a newer event must
// read "not pending" and must not be able to cancel the new tenant.
TEST(Engine, StaleHandleCannotTouchRecycledSlot) {
  Engine e;
  int first = 0, second = 0;
  EventHandle a = e.after(1.0, [&] { ++first; });
  a.cancel();  // frees the slot; `a` keeps the old generation
  EventHandle b = e.after(2.0, [&] { ++second; });  // reuses the slot
  EXPECT_FALSE(a.pending());
  EXPECT_TRUE(b.pending());
  a.cancel();  // generation mismatch: must not cancel `b`
  EXPECT_TRUE(b.pending());
  e.run();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
}

TEST(Engine, StaleHandleAfterFireCannotTouchRecycledSlot) {
  Engine e;
  int fired = 0;
  EventHandle a = e.after(1.0, [&] { ++fired; });
  e.run();
  EXPECT_EQ(fired, 1);
  EventHandle b = e.after(1.0, [&] { fired += 10; });  // reuses a's slot
  a.cancel();
  EXPECT_TRUE(b.pending());
  e.run();
  EXPECT_EQ(fired, 11);
}

// Cancelling your own handle from inside the callback must be a harmless
// no-op (the event is already "fired"), not a use-after-free of the running
// callback.
TEST(Engine, CancelOwnHandleWhileFiringIsSafe) {
  Engine e;
  int fired = 0;
  auto h = std::make_shared<EventHandle>();
  *h = e.after(1.0, [&fired, h] {
    EXPECT_FALSE(h->pending());
    h->cancel();
    ++fired;
  });
  e.run();
  EXPECT_EQ(fired, 1);
}

TEST(Engine, LargeCaptureFallsBackToHeapAndFires) {
  Engine e;
  std::array<unsigned char, 512> blob{};
  blob[0] = 42;
  blob[511] = 7;
  int seen = 0;
  e.after(1.0, [blob, &seen] { seen = blob[0] + blob[511]; });
  e.run();
  EXPECT_EQ(seen, 49);
}

TEST(Engine, CancelledCallbackIsDestroyedImmediately) {
  Engine e;
  auto token = std::make_shared<int>(1);
  EXPECT_EQ(token.use_count(), 1);
  auto h = e.after(1.0, [token] {});
  EXPECT_EQ(token.use_count(), 2);
  h.cancel();
  EXPECT_EQ(token.use_count(), 1);  // destroyed at cancel, not at fire time
  e.run();
}

TEST(Engine, LargeCancelledCallbackIsDestroyed) {
  Engine e;
  auto token = std::make_shared<int>(1);
  std::array<unsigned char, 512> pad{};
  auto h = e.after(1.0, [token, pad] { (void)pad; });
  EXPECT_EQ(token.use_count(), 2);
  h.cancel();
  EXPECT_EQ(token.use_count(), 1);
  e.run();
}

TEST(Engine, UnfiredCallbacksDestroyedWithEngine) {
  auto token = std::make_shared<int>(1);
  {
    Engine e;
    e.after(1.0, [token] {});
    e.after(2.0, [token] {});
    EXPECT_EQ(token.use_count(), 3);
    // Engine destroyed with both events still scheduled.
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Engine, PendingCountTracksScheduleFireCancel) {
  Engine e;
  EXPECT_EQ(e.events_pending(), 0u);
  auto a = e.after(1.0, [] {});
  auto b = e.after(2.0, [] {});
  // Timers count like any other event.
  auto t = e.timer_after(1.5, [] {});
  e.timer_after(3.0, [] {});
  EXPECT_EQ(e.events_pending(), 4u);
  a.cancel();
  t.cancel();
  EXPECT_EQ(e.events_pending(), 2u);
  e.run_until(2.5);
  EXPECT_EQ(e.events_pending(), 1u);
  e.run();
  EXPECT_EQ(e.events_pending(), 0u);
  EXPECT_EQ(e.events_executed(), 2u);
  (void)b;
}

// Timer-rearm churn: many cancels per fire drives the lazy-deletion
// compaction path; ordering and counts must survive it.
TEST(Engine, RearmChurnKeepsOrderThroughCompaction) {
  Engine e;
  int fired = 0;
  Time last_time = -1.0;
  EventHandle timer;
  std::function<void(int)> step = [&](int hop) {
    EXPECT_GE(e.now(), last_time);
    last_time = e.now();
    ++fired;
    timer.cancel();
    timer = e.after(1e9, [] { FAIL() << "cancelled timer fired"; });
    if (hop < 5000) e.after(0.25, [&step, hop] { step(hop + 1); });
  };
  e.after(0.0, [&step] { step(1); });
  e.run_until(2000.0);
  EXPECT_EQ(fired, 5000);
  timer.cancel();
  EXPECT_EQ(e.events_pending(), 0u);
}

// -0.0 == 0.0, so an event at -0.0 takes its place among the events at 0.0
// by schedule order (the queue's key orders the time's bits).
TEST(Engine, NegativeZeroTimeFiresInScheduleOrder) {
  Engine e;
  std::vector<int> order;
  e.at(0.0, [&] { order.push_back(0); });
  e.at(-0.0, [&] { order.push_back(1); });
  e.timer_after(-0.0, [&] { order.push_back(2); });
  e.at(0.0, [&] { order.push_back(3); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

/// Drives a seeded random mix of after, timer_after and same-time at, with
/// cancels from inside callbacks and timer re-arm churn, and checks every
/// fired event against a reference: the set of uncancelled events ordered by
/// (time, schedule order). Each fired event must be that set's first.
class OrderOracle {
 public:
  explicit OrderOracle(std::uint64_t seed) : rng_(seed) {}

  void run() {
    for (int i = 0; i < 64; ++i) schedule_random();
    for (auto& t : timers_) t = schedule(Kind::kTimer, rearm_delay());
    e_.run();
  }

  Engine& engine() { return e_; }
  std::uint64_t scheduled() const { return scheduled_; }
  std::uint64_t fired() const { return fired_; }
  std::uint64_t cancelled() const { return cancelled_; }
  std::size_t reference_left() const { return pending_.size(); }

 private:
  using Ref = std::pair<Time, std::uint64_t>;  ///< (time, schedule order)
  enum class Kind { kAfter, kTimer, kAt };
  static constexpr std::uint64_t kBudget = 40000;

  int draw(int lo, int hi) { return std::uniform_int_distribution<int>(lo, hi)(rng_); }
  // Multiples of 1/4 add exactly, so many events share a time.
  Duration delay() { return 0.25 * draw(0, 6); }
  Duration rearm_delay() { return 0.25 * draw(2, 12); }

  Ref schedule(Kind kind, Duration d) {
    const Ref ref{e_.now() + d, scheduled_++};
    auto fn = [this, ref] { on_fire(ref); };
    EventHandle h = kind == Kind::kAfter   ? e_.after(d, fn)
                    : kind == Kind::kTimer ? e_.timer_after(d, fn)
                                           : e_.at(ref.first, fn);
    pending_.emplace(ref, h);
    return ref;
  }
  void schedule_random() { schedule(static_cast<Kind>(draw(0, 2)), delay()); }

  void cancel(const Ref& ref) {
    auto it = pending_.find(ref);
    if (it == pending_.end()) return;  // fired or cancelled already
    EXPECT_TRUE(it->second.pending());
    it->second.cancel();
    EXPECT_FALSE(it->second.pending());
    pending_.erase(it);
    ++cancelled_;
  }

  void on_fire(const Ref& ref) {
    ASSERT_FALSE(pending_.empty());
    ASSERT_EQ(pending_.begin()->first, ref) << "event " << fired_;
    EXPECT_EQ(e_.now(), ref.first);
    EventHandle self = pending_.begin()->second;
    pending_.erase(pending_.begin());
    ++fired_;
    self.cancel();  // its own handle: already fired, a no-op
    if (scheduled_ >= kBudget) return;
    // Two timers re-armed per event: cancelled entries soon outnumber live
    // ones, which compacts the heaps again and again.
    for (int i = 0; i < 2; ++i) {
      Ref& t = timers_[static_cast<std::size_t>(draw(0, 7))];
      cancel(t);
      t = schedule(Kind::kTimer, rearm_delay());
    }
    // On average 1.5 events in and 1.5 out (this one and a cancel every
    // other time), so the population wanders around its initial 64.
    for (int n = draw(0, 3); n > 0; --n) schedule_random();
    if (draw(0, 1) == 0 && !pending_.empty()) {
      auto victim = pending_.begin();
      std::advance(victim, draw(0, static_cast<int>(pending_.size()) - 1));
      cancel(victim->first);
    }
  }

  Engine e_;
  std::mt19937_64 rng_;
  std::map<Ref, EventHandle> pending_;
  std::array<Ref, 8> timers_{};
  std::uint64_t scheduled_ = 0;
  std::uint64_t fired_ = 0;
  std::uint64_t cancelled_ = 0;
};

TEST(Engine, RandomMixFiresInTimeThenScheduleOrder) {
  for (const std::uint64_t seed : {7u, 11u, 23u}) {
    OrderOracle oracle(seed);
    oracle.run();
    EXPECT_EQ(oracle.reference_left(), 0u) << "seed " << seed;
    EXPECT_EQ(oracle.fired() + oracle.cancelled(), oracle.scheduled());
    EXPECT_GE(oracle.scheduled(), 40000u);
    EXPECT_GT(oracle.cancelled(), oracle.scheduled() / 4);
    EXPECT_EQ(oracle.engine().events_executed(), oracle.fired());
    EXPECT_EQ(oracle.engine().events_pending(), 0u);
  }
}

TEST(Engine, PerEngineIdsAreDeterministic) {
  Engine a;
  Engine b;
  EXPECT_EQ(a.allocate_id(), 1u);
  EXPECT_EQ(a.allocate_id(), 2u);
  // A second engine's ids are independent of the first's history.
  EXPECT_EQ(b.allocate_id(), 1u);
}

}  // namespace
}  // namespace dclue::sim
