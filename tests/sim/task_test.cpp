#include "sim/task.hpp"

#include <gtest/gtest.h>

#include "sim/sync.hpp"

namespace dclue::sim {
namespace {

TEST(Task, DelayAdvancesSimulatedTime) {
  Engine e;
  Time finished = -1.0;
  spawn([](Engine& eng, Time& out) -> Task<void> {
    co_await delay_for(eng, 1.5);
    co_await delay_for(eng, 2.5);
    out = eng.now();
  }(e, finished));
  e.run();
  EXPECT_DOUBLE_EQ(finished, 4.0);
}

TEST(Task, ValueTaskPropagatesResult) {
  Engine e;
  int result = 0;
  auto inner = [](Engine& eng) -> Task<int> {
    co_await delay_for(eng, 1.0);
    co_return 42;
  };
  spawn([](Engine& eng, auto inner, int& out) -> Task<void> {
    out = co_await inner(eng);
  }(e, inner, result));
  e.run();
  EXPECT_EQ(result, 42);
}

TEST(Task, NestedAwaitsCompleteInOrder) {
  Engine e;
  std::vector<int> order;
  auto leaf = [](Engine& eng, std::vector<int>& o, int id) -> Task<void> {
    co_await delay_for(eng, static_cast<double>(id));
    o.push_back(id);
  };
  spawn([](Engine& eng, auto leaf, std::vector<int>& o) -> Task<void> {
    co_await leaf(eng, o, 1);
    co_await leaf(eng, o, 2);
    o.push_back(99);
  }(e, leaf, order));
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 99}));
}

TEST(Task, ExceptionPropagatesThroughAwait) {
  Engine e;
  bool caught = false;
  auto thrower = [](Engine& eng) -> Task<void> {
    co_await delay_for(eng, 1.0);
    throw std::runtime_error("boom");
  };
  spawn([](Engine& eng, auto thrower, bool& caught) -> Task<void> {
    try {
      co_await thrower(eng);
    } catch (const std::runtime_error&) {
      caught = true;
    }
  }(e, thrower, caught));
  e.run();
  EXPECT_TRUE(caught);
}

TEST(Gate, WaitersReleaseOnOpen) {
  Engine e;
  Gate gate(e);
  int released = 0;
  for (int i = 0; i < 3; ++i) {
    spawn([](Gate& g, int& r) -> Task<void> {
      co_await g.wait();
      ++r;
    }(gate, released));
  }
  e.after(1.0, [&] { gate.open(); });
  e.run();
  EXPECT_EQ(released, 3);
  EXPECT_TRUE(gate.is_open());
}

TEST(Gate, WaitOnOpenGateDoesNotSuspend) {
  Engine e;
  Gate gate(e);
  gate.open();
  bool done = false;
  spawn([](Gate& g, bool& d) -> Task<void> {
    co_await g.wait();
    d = true;
  }(gate, done));
  // Completed synchronously at spawn; no events needed.
  EXPECT_TRUE(done);
}

TEST(Mailbox, DeliversInFifoOrder) {
  Engine e;
  Mailbox<int> box(e);
  std::vector<int> got;
  spawn([](Mailbox<int>& b, std::vector<int>& out) -> Task<void> {
    for (int i = 0; i < 3; ++i) out.push_back(co_await b.receive());
  }(box, got));
  e.after(1.0, [&] {
    box.push(10);
    box.push(20);
    box.push(30);
  });
  e.run();
  EXPECT_EQ(got, (std::vector<int>{10, 20, 30}));
}

TEST(Mailbox, TryReceiveDoesNotStealFromWokenWaiter) {
  Engine e;
  Mailbox<int> box(e);
  int received = -1;
  spawn([](Mailbox<int>& b, int& out) -> Task<void> {
    out = co_await b.receive();
  }(box, received));
  e.after(1.0, [&] {
    box.push(7);
    // The waiter's wakeup is deferred through the engine; a try_receive in
    // between must not observe (or steal) the handed-off item.
    EXPECT_FALSE(box.try_receive().has_value());
  });
  e.run();
  EXPECT_EQ(received, 7);
}

TEST(Mailbox, MultipleWaitersServedFifo) {
  Engine e;
  Mailbox<int> box(e);
  std::vector<int> got;
  for (int i = 0; i < 2; ++i) {
    spawn([](Mailbox<int>& b, std::vector<int>& out) -> Task<void> {
      out.push_back(co_await b.receive());
    }(box, got));
  }
  e.after(1.0, [&] { box.push(1); });
  e.after(2.0, [&] { box.push(2); });
  e.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2}));
}

TEST(WaitGroup, WaitsForAllActivities) {
  Engine e;
  WaitGroup wg(e);
  bool finished = false;
  for (int i = 1; i <= 3; ++i) {
    wg.add();
    spawn([](Engine& eng, WaitGroup& w, int d) -> Task<void> {
      co_await delay_for(eng, static_cast<double>(d));
      w.done();
    }(e, wg, i));
  }
  spawn([](Engine& eng, WaitGroup& w, bool& f) -> Task<void> {
    co_await w.wait();
    f = eng.now() >= 3.0;
  }(e, wg, finished));
  e.run();
  EXPECT_TRUE(finished);
}

}  // namespace
}  // namespace dclue::sim
