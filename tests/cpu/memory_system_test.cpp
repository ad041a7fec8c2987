#include "cpu/memory_system.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

namespace dclue::cpu {
namespace {

struct Fixture {
  PlatformParams params;
  MemorySystem mem{params};
};

TEST(MemorySystem, BaselineCpiIsModest) {
  Fixture f;
  f.mem.set_busy_cores(2);
  f.mem.set_active_threads(10);
  double cpi = f.mem.effective_cpi(JobClass::kApplication);
  EXPECT_GT(cpi, f.params.base_cpi[0]);
  EXPECT_LT(cpi, 15.0);
}

TEST(MemorySystem, CpiRisesWithThreadPressure) {
  Fixture f;
  f.mem.set_busy_cores(2);
  f.mem.set_active_threads(10);
  double low = f.mem.effective_cpi(JobClass::kApplication);
  f.mem.set_active_threads(75);
  double high = f.mem.effective_cpi(JobClass::kApplication);
  EXPECT_GT(high, low * 1.2);
}

TEST(MemorySystem, KernelWorkHasHigherCpiThanApplication) {
  Fixture f;
  f.mem.set_busy_cores(2);
  f.mem.set_active_threads(20);
  EXPECT_GT(f.mem.effective_cpi(JobClass::kKernel),
            f.mem.effective_cpi(JobClass::kApplication));
  EXPECT_GT(f.mem.effective_cpi(JobClass::kInterrupt),
            f.mem.effective_cpi(JobClass::kKernel));
}

TEST(MemorySystem, EvictionFractionMatchesWorkingSetModel) {
  Fixture f;
  // 32KB working set, 1MB cache: 20 threads fit (640KB), no eviction.
  EXPECT_DOUBLE_EQ(f.mem.eviction_fraction(20), 0.0);
  // 75 threads: 2400KB footprint, (2400-1024)/2400 evicted.
  EXPECT_NEAR(f.mem.eviction_fraction(75), (75.0 * 32 - 1024) / (75.0 * 32), 1e-9);
  EXPECT_LT(f.mem.eviction_fraction(75), 1.0);
}

TEST(MemorySystem, ContextSwitchCostMatchesPaperAnchors) {
  Fixture f;
  f.mem.set_busy_cores(2);
  // ~20 active threads: the paper reports 17.7K cycles per switch.
  f.mem.set_active_threads(20);
  EXPECT_NEAR(f.mem.context_switch_cycles(), 17'700, 2'000);
  // ~75 active threads: the paper reports 69.7K cycles per switch.
  f.mem.set_active_threads(75);
  double c = f.mem.context_switch_cycles();
  EXPECT_NEAR(c, 69'700, 20'000);
  EXPECT_GT(c, 40'000);
}

TEST(MemorySystem, ClassMixShiftsBlendedCpi) {
  Fixture f;
  f.mem.set_busy_cores(2);
  f.mem.set_active_threads(20);
  f.mem.note_instructions(JobClass::kApplication, 1e6);
  double app_heavy = f.mem.effective_cpi(JobClass::kApplication);
  f.mem.note_instructions(JobClass::kInterrupt, 9e6);
  double intr_heavy = f.mem.effective_cpi(JobClass::kApplication);
  // Interrupt-heavy mix raises memory pressure and therefore everyone's CPI.
  EXPECT_GE(intr_heavy, app_heavy);
}

TEST(MemorySystem, LoadedLatencyExceedsUnloaded) {
  Fixture f;
  f.mem.set_busy_cores(2);
  f.mem.set_active_threads(60);
  f.mem.effective_cpi(JobClass::kApplication);
  EXPECT_GT(f.mem.loaded_memory_latency_s(), f.params.dram_base_s);
}

TEST(MemorySystem, UtilizationIsBounded) {
  Fixture f;
  f.mem.set_busy_cores(2);
  f.mem.set_active_threads(200);
  f.mem.effective_cpi(JobClass::kApplication);
  EXPECT_LE(f.mem.data_bus_utilization(), 1.0);
  EXPECT_GT(f.mem.data_bus_utilization(), 0.0);
}

/// Instructions noted per class before solving; the model's class shares
/// are these over their sum.
struct Mix {
  const char* name;
  double instr[kNumJobClasses];
};

constexpr Mix kMixes[] = {
    {"application-only", {1e7, 0.0, 0.0}},
    {"kernel-heavy", {1e6, 9e6, 0.0}},
    {"interrupt-heavy", {1e6, 0.0, 9e6}},
};

constexpr int kThreadGrid[] = {0, 1, 10, 20, 32, 50, 75, 100, 150, 200, 250, 300};

/// A test-local statement of the CPI fixed point the solver must hit:
/// c = base_cpi + k * latency(c), where the miss rate at CPI c is
/// busy * freq * mpi / c.
struct FixedPoint {
  const PlatformParams& p;
  double base_cpi = 0.0;
  double mpi = 0.0;
  int busy = 1;

  FixedPoint(const PlatformParams& params, const Mix& mix, int busy_cores,
             double evict)
      : p(params), busy(std::max(busy_cores, 1)) {
    double total = 0.0;
    for (double v : mix.instr) total += v;
    for (int c = 0; c < kNumJobClasses; ++c) {
      base_cpi += mix.instr[c] / total * p.base_cpi[c];
      mpi += mix.instr[c] / total * p.mpi[c];
    }
    mpi *= 1.0 + 2.0 * evict;
  }

  [[nodiscard]] double k() const { return mpi * p.freq_hz * p.blocking_factor; }
  [[nodiscard]] double lambda(double cpi) const {
    return busy * p.freq_hz * mpi / cpi;
  }
  /// (service time, servers) of the address bus, data bus and memory channels.
  [[nodiscard]] std::array<std::pair<double, int>, 3> stations() const {
    return {{{p.addr_bus_s, 1}, {p.data_bus_s, 1}, {p.mem_channel_s, p.mem_channels}}};
  }
  [[nodiscard]] double latency(double cpi) const {
    double l = p.dram_base_s;
    for (auto [s, n] : stations()) {
      const double r = std::min(lambda(cpi) * s / n, 0.97);
      l += r / (1.0 - r) * s;
    }
    return l;
  }
  [[nodiscard]] double h(double cpi) const {
    return cpi - base_cpi - k() * latency(cpi);
  }
  [[nodiscard]] double dh(double cpi) const {
    double sum = 0.0;
    for (auto [s, n] : stations()) {
      const double r = lambda(cpi) * s / n;
      if (r < 0.97) sum += s * (s / n) / ((1.0 - r) * (1.0 - r));
    }
    return 1.0 + k() * lambda(cpi) / cpi * sum;
  }

  /// The solver this model replaced: 30 damped steps from base_cpi + 1.
  [[nodiscard]] double damped_30_steps() const {
    double cpi = base_cpi + 1.0;
    for (int iter = 0; iter < 30; ++iter) {
      cpi = 0.5 * cpi + 0.5 * (base_cpi + k() * latency(cpi));
    }
    return cpi;
  }

  /// Newton's method without a bracket; the step count to |step| <= 1e-15 c,
  /// or -1 if it has not converged after 200 steps.
  [[nodiscard]] int unbracketed_newton_steps() const {
    double cpi = base_cpi + 1.0;
    for (int iter = 0; iter < 200; ++iter) {
      const double step = h(cpi) / dh(cpi);
      if (std::abs(step) <= 1e-15 * cpi) return iter;
      cpi -= step;
    }
    return -1;
  }
};

/// Note each class's instructions of \p mix once.
void note_mix(MemorySystem& mem, const Mix& mix) {
  for (int c = 0; c < kNumJobClasses; ++c) {
    if (mix.instr[c] > 0.0) mem.note_instructions(static_cast<JobClass>(c), mix.instr[c]);
  }
}

/// A freshly built MemorySystem at (\p busy, \p threads) with \p mix noted.
MemorySystem fresh_at(const PlatformParams& params, const Mix& mix, int busy,
                      double threads) {
  MemorySystem mem{params};
  mem.set_busy_cores(busy);
  mem.set_active_threads(threads);
  note_mix(mem, mix);
  return mem;
}

/// Solve through MemorySystem and return the blended CPI,
/// sum over classes of class share * effective_cpi.
double blended_cpi(const PlatformParams& params, const Mix& mix, int busy,
                   double threads) {
  MemorySystem mem = fresh_at(params, mix, busy, threads);
  double total = 0.0;
  for (double v : mix.instr) total += v;
  double cpi = 0.0;
  for (int c = 0; c < kNumJobClasses; ++c) {
    cpi += mix.instr[c] / total * mem.effective_cpi(static_cast<JobClass>(c));
  }
  return cpi;
}

FixedPoint model_for(const Fixture& f, const Mix& mix, int busy, double threads) {
  return FixedPoint(f.params, mix, busy,
                    f.mem.eviction_fraction(std::max(threads, 1.0)));
}

TEST(MemorySystem, CpiSatisfiesFixedPointAcrossGrid) {
  // One more input: a single instance walks the whole grid, and at every
  // point each class's CPI equals a fresh instance's. The CPI is a function
  // of the state, never of the call history.
  Fixture f;
  for (const Mix& mix : kMixes) {
    MemorySystem walker{f.params};
    note_mix(walker, mix);
    for (int busy : {1, 2}) {
      for (int threads : kThreadGrid) {
        const double cpi = blended_cpi(f.params, mix, busy, threads);
        const FixedPoint m = model_for(f, mix, busy, threads);
        EXPECT_LE(std::abs(m.h(cpi)) / cpi, 1e-12)
            << mix.name << " busy=" << busy << " threads=" << threads;
        walker.set_busy_cores(busy);
        walker.set_active_threads(threads);
        MemorySystem fresh = fresh_at(f.params, mix, busy, threads);
        for (int c = 0; c < kNumJobClasses; ++c) {
          const auto cls = static_cast<JobClass>(c);
          EXPECT_EQ(walker.effective_cpi(cls), fresh.effective_cpi(cls))
              << mix.name << " busy=" << busy << " threads=" << threads
              << " class=" << c;
        }
      }
    }
  }
}

TEST(MemorySystem, BracketHoldsNewtonAcrossTheClampKink) {
  // Four busy cores (a 4-core node), 300 threads (89 % of each working set
  // evicted) and an interrupt-heavy mix: the cold guess saturates every
  // station, and plain Newton then jumps back and forth across the clamp
  // kink forever. With at most two busy cores plain Newton happens to
  // converge on this platform, so the case needs the wider node.
  Fixture f;
  const Mix& mix = kMixes[2];
  const FixedPoint m = model_for(f, mix, 4, 300);
  EXPECT_EQ(m.unbracketed_newton_steps(), -1);

  const double cpi = blended_cpi(f.params, mix, 4, 300);
  EXPECT_LE(std::abs(m.h(cpi)) / cpi, 1e-12);
  EXPECT_GT(cpi, m.base_cpi);
}

TEST(MemorySystem, AgreesWithThirtyDampedSteps) {
  Fixture f;
  for (const Mix& mix : kMixes) {
    for (int busy : {1, 2}) {
      for (int threads : kThreadGrid) {
        const double cpi = blended_cpi(f.params, mix, busy, threads);
        const double old = model_for(f, mix, busy, threads).damped_30_steps();
        EXPECT_NEAR(cpi, old, 1e-9 * old)
            << mix.name << " busy=" << busy << " threads=" << threads;
      }
    }
  }
}

}  // namespace
}  // namespace dclue::cpu
