#pragma once

/// \file memory_system.hpp
/// Queueing model of the processor bus and memory channels, and the CPI /
/// context-switch-cost model built on it. Reproduces the paper's §2.3 final
/// modeling layer: "Address bus, data bus and memory channels are modeled as
/// queuing systems and the resulting memory latency determines CPU stalls via
/// the concept of blocking factor."
///
/// The effective CPI is a fixed point: more stalls -> higher CPI -> lower
/// instruction (and therefore miss) rate -> less bus queueing -> fewer
/// stalls. It is solved to convergence by bracketed Newton iteration every
/// time it is asked for, starting from the same guess every time, so the
/// CPI is a pure function of the inputs (busy cores, active threads, class
/// mix).

#include <array>

#include "cpu/params.hpp"

namespace dclue::cpu {

class MemorySystem {
 public:
  explicit MemorySystem(const PlatformParams& params) : params_(params) {}

  /// Effective cycles-per-instruction for work of class \p cls given the
  /// current platform state, solved afresh on every call.
  double effective_cpi(JobClass cls);

  /// Cost in cycles of dispatching a different thread than the one that ran
  /// last on a core. Grows with cache pressure (thread count): the evicted
  /// part of the working set is refilled — the paper's 17.7 K -> 69.7 K effect.
  [[nodiscard]] sim::Cycles context_switch_cycles() const;

  /// Fraction of a thread's working set evicted between consecutive runs.
  [[nodiscard]] double eviction_fraction(double threads) const;

  /// --- state notifications from the processor ---------------------------
  void set_busy_cores(int n) { busy_cores_ = n; }
  void set_active_threads(double n) { active_threads_ = n; }
  /// Record executed instructions so the class blend tracks actual work.
  void note_instructions(JobClass cls, double instructions);

  /// --- observability -----------------------------------------------------
  [[nodiscard]] double loaded_memory_latency_s() const { return last_latency_s_; }
  [[nodiscard]] double data_bus_utilization() const { return last_dbus_util_; }
  [[nodiscard]] double blended_mpi() const { return last_mpi_; }
  [[nodiscard]] double active_threads() const { return active_threads_; }

 private:
  void recompute();
  [[nodiscard]] double class_share(JobClass cls) const;

  PlatformParams params_;

  int busy_cores_ = 0;
  double active_threads_ = 0.0;
  std::array<double, kNumJobClasses> instr_by_class_{};
  double instr_total_ = 0.0;

  std::array<double, kNumJobClasses> cpi_by_class_{};
  double last_latency_s_ = 0.0;
  double last_dbus_util_ = 0.0;
  double last_mpi_ = 0.0;
};

}  // namespace dclue::cpu
