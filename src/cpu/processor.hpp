#pragma once

/// \file processor.hpp
/// Multi-core CPU scheduler for one server node. Model coroutines execute
/// path-length-denominated work with `co_await proc.compute(pl, cls, tid)`;
/// the protocol layers (TCP, iSCSI, IPC, cache fusion) charge theirs with
/// `co_await cpu::charge(proc, pl, cls)` on the host's processor, which a
/// host whose CPU is not modeled leaves null. Interrupt-class work preempts
/// application work (the paper: "application processing is interrupted to
/// handle message receives"), and dispatching a different thread than the
/// one that last ran on a core pays the cache-pressure-dependent context
/// switch cost from the MemorySystem.

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
  struct Job {
    sim::PathLength remaining;
    JobClass cls;
    ThreadId tid;
    std::coroutine_handle<> resume;
  };

 public:
  Processor(sim::Engine& engine, const PlatformParams& params, MemorySystem& mem)
      : engine_(engine), params_(params), mem_(mem), cores_(params.cores) {}
  Processor(const Processor&) = delete;
  Processor& operator=(const Processor&) = delete;

  /// Awaiter of compute() and charge(). Its job lives in the awaiting
  /// coroutine's frame; the processor resumes that coroutine when the job
  /// completes. Ready at once when there is no processor or no work.
  class Work {
   public:
    Work(Processor* proc, sim::PathLength pl, JobClass cls, ThreadId tid)
        : proc_(proc), job_{pl, cls, tid, {}} {}
    bool await_ready() const noexcept {
      return proc_ == nullptr || job_.remaining <= 0.0;
    }
    void await_suspend(std::coroutine_handle<> h) {
      job_.resume = h;
      proc_->submit(&job_);
    }
    void await_resume() const noexcept {}

   private:
    Processor* proc_;
    Job job_;
  };

  /// Awaitable: execute \p pl instructions of class \p cls on behalf of
  /// thread \p tid. Resumes when the work completes.
  Work compute(sim::PathLength pl, JobClass cls, ThreadId tid) {
    return {this, pl, cls, tid};
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
  /// Bind this processor's collectors under \p prefix ("node0.cpu.").
  void register_metrics(obs::MetricsRegistry& reg, const std::string& prefix);

 private:
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

/// Awaitable: charge \p pl instructions of protocol work of class \p cls to
/// the host CPU \p proc, outside any thread context. A host whose CPU is not
/// modeled (a client or FTP host, a unit-test harness) passes a null \p proc
/// and charges nothing.
[[nodiscard]] inline Processor::Work charge(Processor* proc, sim::PathLength pl,
                                            JobClass cls) {
  return {proc, pl, cls, kNoThread};
}

}  // namespace dclue::cpu
