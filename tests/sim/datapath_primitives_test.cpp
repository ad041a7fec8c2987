/// Unit tests for the zero-allocation datapath primitives: the growable ring
/// buffer behind packet queues, the inline small-vector behind TCP reassembly
/// state, the inline-storage callable replacing std::function on per-segment
/// paths, and the size-class frame pool recycling coroutine frames.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sim/frame_pool.hpp"
#include "sim/inline_fn.hpp"
#include "sim/ring.hpp"
#include "sim/small_vec.hpp"
#include "sim/task.hpp"

namespace dclue::sim {
namespace {

// ---------------------------------------------------------------------------
// Ring
// ---------------------------------------------------------------------------

TEST(Ring, FifoAcrossWrapAndGrowth) {
  Ring<int> r;
  int next_in = 0;
  int next_out = 0;
  // Rolling occupancy of 20 (above the initial capacity of 16) cycled many
  // times: the head index wraps repeatedly and the buffer grows mid-stream.
  for (int round = 0; round < 500; ++round) {
    while (next_in - next_out < 20) r.push_back(next_in++);
    for (int k = 0; k < 6; ++k) {
      ASSERT_FALSE(r.empty());
      EXPECT_EQ(r.front(), next_out);
      r.pop_front();
      ++next_out;
    }
  }
  while (!r.empty()) {
    EXPECT_EQ(r.front(), next_out++);
    r.pop_front();
  }
  EXPECT_EQ(next_in, next_out);
}

TEST(Ring, SteadyStateNeverReallocates) {
  Ring<int> r;
  for (int i = 0; i < 10; ++i) r.push_back(i);
  const std::size_t cap = r.capacity();
  for (int i = 0; i < 100'000; ++i) {
    r.push_back(i);
    r.pop_front();
  }
  EXPECT_EQ(r.capacity(), cap);  // working-set depth reached: no more growth
}

TEST(Ring, IndexingIsFifoOrderAndGrowthPreservesIt) {
  Ring<std::string> r;  // non-trivial element type
  for (int i = 0; i < 5; ++i) r.push_back(std::to_string(i));
  r.pop_front();
  r.pop_front();
  for (int i = 5; i < 40; ++i) r.push_back(std::to_string(i));  // forces growth
  ASSERT_EQ(r.size(), 38u);
  for (std::size_t i = 0; i < r.size(); ++i) {
    EXPECT_EQ(r[i], std::to_string(i + 2));
  }
}

TEST(Ring, EmplaceBackConstructsInPlace) {
  struct Pair {
    int a;
    double b;
  };
  Ring<Pair> r;
  Pair& p = r.emplace_back(7, 2.5);
  EXPECT_EQ(p.a, 7);
  EXPECT_EQ(r.front().a, 7);
  EXPECT_EQ(r.front().b, 2.5);
}

TEST(Ring, ClearDestroysElements) {
  auto token = std::make_shared<int>(1);
  Ring<std::shared_ptr<int>> r;
  for (int i = 0; i < 8; ++i) r.push_back(token);
  EXPECT_EQ(token.use_count(), 9);
  r.clear();
  EXPECT_EQ(token.use_count(), 1);
}

// ---------------------------------------------------------------------------
// SmallVec
// ---------------------------------------------------------------------------

TEST(SmallVec, InsertEraseSemantics) {
  SmallVec<int, 4> v;
  v.push_back(10);
  v.push_back(30);
  v.insert_at(1, 20);
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 10);
  EXPECT_EQ(v[1], 20);
  EXPECT_EQ(v[2], 30);
  v.erase_at(1);
  EXPECT_EQ(v[1], 30);
  v.erase_range(0, 2);
  EXPECT_TRUE(v.empty());
}

TEST(SmallVec, SpillsToHeapPastInlineCapacityAndKeepsOrder) {
  SmallVec<int, 4> v;
  for (int i = 0; i < 100; ++i) v.push_back(i);
  ASSERT_EQ(v.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(v[i], i);
  v.insert_at(50, -1);
  EXPECT_EQ(v[50], -1);
  EXPECT_EQ(v[51], 50);
  v.truncate(10);
  EXPECT_EQ(v.size(), 10u);
  EXPECT_EQ(v.back(), 9);
}

TEST(SmallVec, CopyAssignAcrossSpillBoundary) {
  SmallVec<int, 4> big;
  for (int i = 0; i < 32; ++i) big.push_back(i);
  SmallVec<int, 4> small;
  small.push_back(-7);
  small = big;  // inline -> heap
  ASSERT_EQ(small.size(), 32u);
  EXPECT_EQ(small[31], 31);
  SmallVec<int, 4> tiny;
  tiny.push_back(5);
  big = tiny;  // heap -> small payload
  ASSERT_EQ(big.size(), 1u);
  EXPECT_EQ(big[0], 5);
}

// ---------------------------------------------------------------------------
// InlineFn
// ---------------------------------------------------------------------------

TEST(InlineFn, InvokesCaptures) {
  int hits = 0;
  InlineFn<int(int)> fn = [&hits](int x) {
    ++hits;
    return x * 2;
  };
  EXPECT_TRUE(static_cast<bool>(fn));
  EXPECT_EQ(fn(21), 42);
  EXPECT_EQ(hits, 1);
}

TEST(InlineFn, DefaultIsEmptyAndResetClears) {
  InlineFn<void()> fn;
  EXPECT_FALSE(static_cast<bool>(fn));
  fn = [] {};
  EXPECT_TRUE(static_cast<bool>(fn));
  fn.reset();
  EXPECT_FALSE(static_cast<bool>(fn));
}

TEST(InlineFn, CopyAndMovePreserveCaptureState) {
  auto counter = std::make_shared<int>(0);
  InlineFn<void()> fn = [counter] { ++*counter; };
  EXPECT_EQ(counter.use_count(), 2);
  InlineFn<void()> copy = fn;
  EXPECT_EQ(counter.use_count(), 3);
  copy();
  InlineFn<void()> moved = std::move(copy);
  EXPECT_EQ(counter.use_count(), 3);  // move transfers, does not add
  moved();
  fn();
  EXPECT_EQ(*counter, 3);
  fn.reset();
  moved.reset();
  EXPECT_EQ(counter.use_count(), 1);  // destructors ran
}

TEST(InlineFn, AllocatesNothingOnAssignmentOrCall) {
  // The whole point versus std::function: captures live inline. A capture
  // near the capacity limit must not touch the heap.
  struct Big {
    void* p[10];
  };
  Big big{};
  InlineFn<void(), 96> fn = [big]() { (void)big; };
  fn();  // nothing to assert beyond "this compiled and runs without heap use";
         // allocation accounting is asserted end to end by tests/alloc
}

// ---------------------------------------------------------------------------
// FramePool
// ---------------------------------------------------------------------------

TEST(FramePool, RecyclesSameSizeClass) {
  FramePool& pool = FramePool::local();
  pool.reset_stats();
  void* a = pool.allocate(100);  // class 2 (65..128 bytes)
  pool.deallocate(a, 100);
  void* b = pool.allocate(128);  // same class: must reuse the freed block
  EXPECT_EQ(a, b);
  EXPECT_EQ(pool.hits(), 1u);
  pool.deallocate(b, 128);
}

TEST(FramePool, DistinctClassesDoNotShareBlocks) {
  FramePool& pool = FramePool::local();
  void* small = pool.allocate(64);
  pool.deallocate(small, 64);
  void* large = pool.allocate(65);  // next class up: freelist of class 1 unused
  EXPECT_NE(small, large);
  pool.deallocate(large, 65);
  void* again = pool.allocate(40);  // class 1 again: reuses the first block
  EXPECT_EQ(again, small);
  pool.deallocate(again, 40);
}

TEST(FramePool, OversizeFallsThroughToHeap) {
  FramePool& pool = FramePool::local();
  pool.reset_stats();
  void* p = pool.allocate(FramePool::kMaxPooledBytes + 1);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(pool.oversize(), 1u);
  pool.deallocate(p, FramePool::kMaxPooledBytes + 1);
}

TEST(FramePool, CoroutineFramesComeFromThePool) {
  FramePool& pool = FramePool::local();
  auto make = []() -> Task<int> { co_return 7; };
  auto run_once = [&make](int& out) {
    // Everything completes synchronously: lazy task, immediate co_return.
    spawn([](auto mk, int& o) -> Task<void> { o = co_await mk(); }(make, out));
  };
  int out = 0;
  run_once(out);  // warm up: first frames of these sizes may miss
  ASSERT_EQ(out, 7);
  pool.reset_stats();
  for (int i = 0; i < 10; ++i) {
    out = 0;
    run_once(out);
    EXPECT_EQ(out, 7);
  }
  // Two pooled frames per repetition (wrapper + inner), zero pool misses: the
  // steady state recycles every frame.
  EXPECT_GE(pool.hits(), 20u);
  EXPECT_EQ(pool.misses(), 0u);
}

}  // namespace
}  // namespace dclue::sim
