#pragma once

/// \file processor.hpp
/// Multi-core CPU scheduler for one server node. Model coroutines execute
/// path-length-denominated work with `co_await proc.compute(pl, cls, tid)`.
/// Interrupt-class work preempts application work (the paper: "application
/// processing is interrupted to handle message receives"), and dispatching a
/// different thread than the one that last ran on a core pays the
/// cache-pressure-dependent context switch cost from the MemorySystem.

#include <coroutine>
#include <cstdint>
#include <deque>
#include <vector>

#include "cpu/memory_system.hpp"
#include "cpu/params.hpp"
#include "sim/engine.hpp"
#include "sim/obs/registry.hpp"
#include "sim/obs/stats.hpp"
#include "sim/task.hpp"

namespace dclue::cpu {

/// Identifies a schedulable thread context. Interrupt work uses kNoThread.
using ThreadId = std::int32_t;
inline constexpr ThreadId kNoThread = -1;

class Processor {
 public:
  Processor(sim::Engine& engine, const PlatformParams& params, MemorySystem& mem)
      : engine_(engine), params_(params), mem_(mem), cores_(params.cores) {}
  Processor(const Processor&) = delete;
  Processor& operator=(const Processor&) = delete;

  /// Awaitable: execute \p pl instructions of class \p cls on behalf of
  /// thread \p tid. Resumes when the work completes.
  auto compute(sim::PathLength pl, JobClass cls, ThreadId tid) {
    struct Awaiter {
      Processor& proc;
      Job job;
      bool await_ready() const noexcept { return job.remaining <= 0.0; }
      void await_suspend(std::coroutine_handle<> h) {
        job.resume = h;
        proc.submit(&job);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, Job{pl, cls, tid, {}}};
  }

  /// Threads register while they have in-flight work; the count drives the
  /// cache-pressure model ("active threads" in the paper's §3.4 discussion).
  void thread_activated();
  void thread_deactivated();

  [[nodiscard]] sim::Time now() const { return engine_.now(); }
  [[nodiscard]] const PlatformParams& params() const { return params_; }
  [[nodiscard]] MemorySystem& memory() { return mem_; }

  /// --- metrics ------------------------------------------------------------
  [[nodiscard]] double utilization() const {
    return busy_time_.average(engine_.now()) / params_.cores;
  }
  [[nodiscard]] double avg_active_threads() const {
    return active_threads_tw_.average(engine_.now());
  }
  [[nodiscard]] const obs::Tally& context_switch_cost_cycles() const {
    return csw_cost_;
  }
  [[nodiscard]] std::uint64_t context_switches() const { return csw_count_.count(); }
  [[nodiscard]] double instructions_executed() const {
    return instr_executed_.value();
  }
  [[nodiscard]] double avg_cpi() const {
    return instr_executed_.value() > 0
               ? cycles_executed_.value() / instr_executed_.value()
               : 0.0;
  }
  /// Bind this processor's collectors under \p prefix ("node0.cpu.").
  void register_metrics(obs::MetricsRegistry& reg, const std::string& prefix);

 private:
  struct Job {
    sim::PathLength remaining;
    JobClass cls;
    ThreadId tid;
    std::coroutine_handle<> resume;
  };
  struct Core {
    bool busy = false;
    Job* job = nullptr;
    sim::Time started = 0.0;
    sim::PathLength slice_instr = 0.0;
    double slice_cpi = 1.0;
    sim::EventHandle completion;
    ThreadId last_tid = kNoThread;
  };

  void submit(Job* job);
  void dispatch(int core_idx);
  void complete(int core_idx);
  void preempt(int core_idx);
  [[nodiscard]] int find_idle_core() const;
  [[nodiscard]] int find_preemptible_core() const;
  void update_busy(int delta);

  sim::Engine& engine_;
  PlatformParams params_;
  MemorySystem& mem_;
  std::vector<Core> cores_;
  std::deque<Job*> interrupt_q_;
  std::deque<Job*> normal_q_;

  int active_threads_ = 0;
  int busy_cores_ = 0;
  obs::TimeWeightedAvg active_threads_tw_;
  obs::TimeWeightedAvg busy_time_;  // sum over cores of busy indicator
  obs::Tally csw_cost_;
  obs::Counter csw_count_;
  obs::Accum instr_executed_;
  obs::Accum cycles_executed_;
};

}  // namespace dclue::cpu
