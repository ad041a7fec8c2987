#include "cpu/memory_system.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace dclue::cpu {
namespace {

/// Stations saturate just under full utilization: the CPI fixed point, not
/// the queue, provides the real back-pressure.
constexpr double kRhoClamp = 0.97;

/// Safety bound on solver steps. Bracketed Newton takes at most ~16 even on
/// stress inputs (8 busy cores, near-total eviction), and bisection alone
/// would reach the tolerance within ~60.
constexpr int kMaxSolverSteps = 100;

/// A delay and its derivative in the miss (arrival) rate.
struct Delay {
  double seconds;
  double per_lambda;
};

/// M/M/1-style waiting time for one station; the derivative is 0 once the
/// utilization clamp engages.
Delay station_wait(double lambda, double service_s, int servers = 1) {
  const double rho = lambda * service_s / servers;
  if (rho >= kRhoClamp) return {kRhoClamp / (1.0 - kRhoClamp) * service_s, 0.0};
  const double idle = 1.0 - rho;
  return {rho / idle * service_s, service_s * (service_s / servers) / (idle * idle)};
}

}  // namespace

double MemorySystem::class_share(JobClass cls) const {
  if (instr_total_ <= 0.0) {
    // Before any work has run, assume pure application code.
    return cls == JobClass::kApplication ? 1.0 : 0.0;
  }
  return instr_by_class_[static_cast<int>(cls)] / instr_total_;
}

void MemorySystem::note_instructions(JobClass cls, double instructions) {
  // Exponential forgetting so the blend follows the current phase. Halve the
  // window once it exceeds ~50M instructions of history.
  instr_by_class_[static_cast<int>(cls)] += instructions;
  instr_total_ += instructions;
  if (instr_total_ > 5e7) {
    for (auto& v : instr_by_class_) v *= 0.5;
    instr_total_ *= 0.5;
  }
}

double MemorySystem::eviction_fraction(double threads) const {
  double footprint = threads * static_cast<double>(params_.thread_ws_bytes);
  double cache = static_cast<double>(params_.l2_bytes);
  if (footprint <= cache) return 0.0;
  return (footprint - cache) / footprint;
}

void MemorySystem::recompute() {
  // Blended base CPI and MPI over the current class mix, with cache-pressure
  // inflation of the miss rate: a partially evicted working set makes every
  // run re-fetch part of it.
  const double evict = eviction_fraction(std::max(active_threads_, 1.0));
  double base_cpi = 0.0;
  double mpi = 0.0;
  for (int c = 0; c < kNumJobClasses; ++c) {
    double share = class_share(static_cast<JobClass>(c));
    base_cpi += share * params_.base_cpi[c];
    mpi += share * params_.mpi[c];
  }
  mpi *= 1.0 + 2.0 * evict;

  // Loaded memory latency at miss rate lambda, and its derivative in lambda.
  const auto latency = [this](double lambda) {
    const Delay a = station_wait(lambda, params_.addr_bus_s);
    const Delay d = station_wait(lambda, params_.data_bus_s);
    const Delay m = station_wait(lambda, params_.mem_channel_s, params_.mem_channels);
    return Delay{params_.dram_base_s + a.seconds + d.seconds + m.seconds,
                a.per_lambda + d.per_lambda + m.per_lambda};
  };

  // The CPI c is the root of h(c) = c - base_cpi - k * latency(busy * freq *
  // mpi / c). Latency falls as c rises, so h is increasing and its root lies
  // between base_cpi and base_cpi plus the stall at full saturation. Newton
  // steps converge in a handful of iterations; a step that leaves the
  // shrinking bracket bisects it instead, because plain Newton can oscillate
  // forever across the kink where a station hits the utilization clamp.
  const int busy = std::max(busy_cores_, 1);
  const double k = mpi * params_.freq_hz * params_.blocking_factor;
  const double miss_rate_at_cpi1 = busy * params_.freq_hz * mpi;
  double lo = base_cpi;
  double hi = base_cpi + k * latency(std::numeric_limits<double>::infinity()).seconds;
  double cpi = base_cpi + 1.0;  // cold start: CPI is a pure function of state
  double latency_s = params_.dram_base_s;
  for (int iter = 0; iter < kMaxSolverSteps; ++iter) {
    const double lambda = miss_rate_at_cpi1 / cpi;
    const Delay l = latency(lambda);
    latency_s = l.seconds;
    const double h = cpi - base_cpi - k * l.seconds;
    const double step = h / (1.0 + k * (lambda / cpi) * l.per_lambda);
    // Test convergence before the bracket: at the root, rounding can put the
    // last step a hair outside it, and bisecting there only wastes steps.
    if (std::abs(step) <= 1e-15 * cpi) {
      cpi -= step;
      break;
    }
    if (h < 0.0) {
      lo = cpi;
    } else {
      hi = std::min(hi, cpi);
    }
    const double next = cpi - step;
    cpi = next > lo && next < hi ? next : 0.5 * (lo + hi);
  }

  double stall = cpi - base_cpi;
  for (int c = 0; c < kNumJobClasses; ++c) {
    // Apportion the stall component by each class's relative miss intensity.
    double class_mpi = params_.mpi[c] * (1.0 + 2.0 * evict);
    double scale = mpi > 0.0 ? class_mpi / mpi : 1.0;
    cpi_by_class_[c] = params_.base_cpi[c] + stall * scale;
  }
  last_latency_s_ = latency_s;
  double instr_rate = busy * params_.freq_hz / cpi;
  last_dbus_util_ = std::min(instr_rate * mpi * params_.data_bus_s, 1.0);
  last_mpi_ = mpi;
}

double MemorySystem::effective_cpi(JobClass cls) {
  recompute();
  return cpi_by_class_[static_cast<int>(cls)];
}

sim::Cycles MemorySystem::context_switch_cycles() const {
  const double evict = eviction_fraction(std::max(active_threads_, 1.0));
  const double lines = evict *
                       static_cast<double>(params_.thread_ws_bytes) /
                       static_cast<double>(params_.cache_line_bytes);
  // Refill is a sequential stream, so each line pays close to the unloaded
  // DRAM latency rather than the fully loaded random-access latency. This
  // lands on the paper's anchors: 17.7K cycles at 20 threads (no eviction),
  // ~70K at 75 threads.
  const double miss_penalty_cycles = params_.dram_base_s * params_.freq_hz;
  return params_.context_switch_base_cycles + lines * miss_penalty_cycles;
}

}  // namespace dclue::cpu
