#include "cpu/processor.hpp"

#include <gtest/gtest.h>

#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace dclue::cpu {
namespace {

using sim::Engine;
using sim::Task;

struct Fixture {
  Engine engine;
  PlatformParams params;
  MemorySystem mem{params};
  Processor proc{engine, params, mem};
  Fixture() = default;
  explicit Fixture(PlatformParams p)
      : params(p), mem(params), proc(engine, params, mem) {}
};

TEST(Processor, SingleJobTakesPathLengthOverCpiTime) {
  Fixture f;
  sim::Time done = -1.0;
  sim::spawn([](Fixture& f, sim::Time& out) -> Task<void> {
    co_await f.proc.compute(1e6, JobClass::kApplication, 1);
    out = f.engine.now();
  }(f, done));
  f.engine.run();
  // CPI for pure app work at low thread count: base 1.20 plus a small stall
  // component. 1e6 instructions at 3.2GHz -> ~0.4-0.8ms.
  EXPECT_GT(done, 1e6 * 1.2 / 3.2e9 * 0.99);
  EXPECT_LT(done, 1e6 * 3.0 / 3.2e9);
}

TEST(Processor, TwoCoresRunTwoJobsConcurrently) {
  Fixture f;
  int completed = 0;
  sim::Time t_done = 0.0;
  for (int i = 0; i < 2; ++i) {
    sim::spawn([](Fixture& f, int& c, sim::Time& t, int tid) -> Task<void> {
      co_await f.proc.compute(1e6, JobClass::kApplication, tid);
      ++c;
      t = f.engine.now();
    }(f, completed, t_done, i + 1));
  }
  f.engine.run();
  EXPECT_EQ(completed, 2);
  // Both finish at ~the single-job time (parallel), not 2x.
  EXPECT_LT(t_done, 1e6 * 3.0 / 3.2e9);
}

TEST(Processor, ThirdJobQueuesBehindTwoCores) {
  Fixture f;
  std::vector<sim::Time> done;
  for (int i = 0; i < 3; ++i) {
    sim::spawn([](Fixture& f, std::vector<sim::Time>& d, int tid) -> Task<void> {
      co_await f.proc.compute(1e6, JobClass::kApplication, tid);
      d.push_back(f.engine.now());
    }(f, done, i + 1));
  }
  f.engine.run();
  ASSERT_EQ(done.size(), 3u);
  // The third job starts only after one of the first two finishes.
  EXPECT_GT(done[2], done[0] * 1.8);
}

TEST(Processor, InterruptPreemptsApplicationWork) {
  Fixture f;
  // Saturate both cores with long app jobs, then submit an interrupt; the
  // interrupt must complete long before the app jobs do.
  sim::Time app_done = 0.0, intr_done = 0.0;
  for (int i = 0; i < 2; ++i) {
    sim::spawn([](Fixture& f, sim::Time& out, int tid) -> Task<void> {
      co_await f.proc.compute(1e8, JobClass::kApplication, tid);
      out = f.engine.now();
    }(f, app_done, i + 1));
  }
  f.engine.after(1e-3, [&f, &intr_done] {
    sim::spawn([](Fixture& f, sim::Time& out) -> Task<void> {
      co_await f.proc.compute(1e4, JobClass::kInterrupt, kNoThread);
      out = f.engine.now();
    }(f, intr_done));
  });
  f.engine.run();
  EXPECT_GT(intr_done, 0.0);
  EXPECT_LT(intr_done, app_done / 2);
}

TEST(Processor, PreemptedWorkStillCompletesFully) {
  Fixture f;
  // One long app job repeatedly preempted by interrupts must still execute
  // its full path length (its completion time exceeds the no-interrupt time).
  sim::Time app_done = 0.0;
  sim::spawn([](Fixture& f, sim::Time& out) -> Task<void> {
    co_await f.proc.compute(1e7, JobClass::kApplication, 1);
    out = f.engine.now();
  }(f, app_done));
  PlatformParams p1;
  p1.cores = 1;
  Fixture single(p1);
  sim::Time baseline = 0.0;
  sim::spawn([](Fixture& f, sim::Time& out) -> Task<void> {
    co_await f.proc.compute(1e7, JobClass::kApplication, 1);
    out = f.engine.now();
  }(single, baseline));
  single.engine.run();
  f.engine.run();
  EXPECT_NEAR(app_done, baseline, baseline * 0.5);
}

TEST(Processor, ContextSwitchChargedOnThreadChange) {
  Fixture f;
  // Two threads alternating on one core must record context switches.
  PlatformParams p;
  p.cores = 1;
  Fixture g(p);
  sim::spawn([](Fixture& f) -> Task<void> {
    for (int i = 0; i < 5; ++i) {
      co_await f.proc.compute(1e4, JobClass::kApplication, 1);
      co_await f.proc.compute(1e4, JobClass::kApplication, 2);
    }
  }(g));
  g.engine.run();
  EXPECT_GE(g.proc.context_switches(), 9u);
  EXPECT_NEAR(g.proc.context_switch_cost_cycles().mean(), 17700, 4000);
}

TEST(Processor, NoContextSwitchForSameThread) {
  PlatformParams p;
  p.cores = 1;
  Fixture f(p);
  sim::spawn([](Fixture& f) -> Task<void> {
    for (int i = 0; i < 5; ++i) {
      co_await f.proc.compute(1e4, JobClass::kApplication, 7);
    }
  }(f));
  f.engine.run();
  EXPECT_LE(f.proc.context_switches(), 1u);  // only the initial dispatch
}

TEST(Processor, UtilizationReflectsLoad) {
  Fixture f;
  sim::spawn([](Fixture& f) -> Task<void> {
    co_await f.proc.compute(3.2e6, JobClass::kApplication, 1);
  }(f));
  f.engine.run();
  sim::Time busy_end = f.engine.now();
  // Single job on a 2-core node: utilization ~0.5 while running.
  EXPECT_NEAR(f.proc.utilization(), 0.5, 0.01);
  (void)busy_end;
}

TEST(Processor, ActiveThreadTrackingIsTimeWeighted) {
  Fixture f;
  f.proc.thread_activated();
  f.engine.after(1.0, [&f] { f.proc.thread_activated(); });
  f.engine.after(2.0, [&f] {
    f.proc.thread_deactivated();
    f.proc.thread_deactivated();
  });
  f.engine.after(4.0, [] {});
  f.engine.run();
  // 1 thread for 1s, 2 threads for 1s, 0 for 2s => avg 0.75 over 4s.
  EXPECT_NEAR(f.proc.avg_active_threads(), 0.75, 1e-9);
}

TEST(Processor, ScaledPlatformRunsProportionallySlower) {
  PlatformParams scaled = PlatformParams{}.scaled(100.0);
  Fixture fast;
  Fixture slow(scaled);
  sim::Time t_fast = 0.0, t_slow = 0.0;
  sim::spawn([](Fixture& f, sim::Time& out) -> Task<void> {
    co_await f.proc.compute(1e6, JobClass::kApplication, 1);
    out = f.engine.now();
  }(fast, t_fast));
  sim::spawn([](Fixture& f, sim::Time& out) -> Task<void> {
    co_await f.proc.compute(1e6, JobClass::kApplication, 1);
    out = f.engine.now();
  }(slow, t_slow));
  fast.engine.run();
  slow.engine.run();
  EXPECT_NEAR(t_slow / t_fast, 100.0, 1.0);
}

}  // namespace
}  // namespace dclue::cpu
