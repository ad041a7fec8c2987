#include "cpu/processor.hpp"

#include <cassert>

namespace dclue::cpu {

void Processor::thread_activated() {
  ++active_threads_;
  active_threads_tw_.record(engine_.now(), active_threads_);
  mem_.set_active_threads(active_threads_);
}

void Processor::thread_deactivated() {
  assert(active_threads_ > 0);
  --active_threads_;
  active_threads_tw_.record(engine_.now(), active_threads_);
  mem_.set_active_threads(active_threads_);
}

void Processor::register_metrics(obs::MetricsRegistry& reg,
                                 const std::string& prefix) {
  reg.bind(prefix + "busy_cores", &busy_time_);
  reg.bind(prefix + "active_threads", &active_threads_tw_);
  reg.bind(prefix + "context_switch_cycles", &csw_cost_);
  reg.bind(prefix + "context_switches", &csw_count_);
  reg.bind(prefix + "instructions", &instr_executed_);
  reg.bind(prefix + "cycles", &cycles_executed_);
  reg.gauge_fn(prefix + "stall_cycles", [this] {
    const double stalls = cycles_executed_.value() - instr_executed_.value();
    return stalls > 0.0 ? stalls : 0.0;
  });
  reg.gauge_fn(prefix + "utilization", [this] { return utilization(); });
}

void Processor::update_busy(int delta) {
  busy_cores_ += delta;
  busy_time_.record(engine_.now(), busy_cores_);
  mem_.set_busy_cores(busy_cores_);
}

int Processor::find_idle_core() const {
  for (int i = 0; i < static_cast<int>(cores_.size()); ++i) {
    if (!cores_[i].busy) return i;
  }
  return -1;
}

int Processor::find_preemptible_core() const {
  for (int i = 0; i < static_cast<int>(cores_.size()); ++i) {
    if (cores_[i].busy && cores_[i].job->cls != JobClass::kInterrupt) return i;
  }
  return -1;
}

void Processor::submit(Job* job) {
  if (job->cls == JobClass::kInterrupt) {
    interrupt_q_.push_back(job);
    int idle = find_idle_core();
    if (idle >= 0) {
      dispatch(idle);
    } else {
      int victim = find_preemptible_core();
      if (victim >= 0) preempt(victim);
    }
    return;
  }
  normal_q_.push_back(job);
  int idle = find_idle_core();
  if (idle >= 0) dispatch(idle);
}

void Processor::preempt(int core_idx) {
  Core& core = cores_[core_idx];
  assert(core.busy);
  core.completion.cancel();
  // Account for the executed fraction of the interrupted slice.
  double elapsed = engine_.now() - core.started;
  double slice_time = core.slice_instr * core.slice_cpi / params_.freq_hz;
  double frac = slice_time > 0.0 ? elapsed / slice_time : 1.0;
  if (frac > 1.0) frac = 1.0;
  double executed = core.slice_instr * frac;
  core.job->remaining -= executed;
  instr_executed_.record(executed);
  cycles_executed_.record(executed * core.slice_cpi);
  mem_.note_instructions(core.job->cls, executed);
  if (core.job->remaining < 0.0) core.job->remaining = 0.0;
  // Back to the head of the ready queue: it resumes as soon as the interrupt
  // work drains (same thread context, so no extra switch unless another
  // thread runs on this core in between).
  normal_q_.push_front(core.job);
  core.busy = false;
  core.job = nullptr;
  update_busy(-1);
  dispatch(core_idx);
}

void Processor::dispatch(int core_idx) {
  Core& core = cores_[core_idx];
  assert(!core.busy);
  Job* job = nullptr;
  if (!interrupt_q_.empty()) {
    job = interrupt_q_.front();
    interrupt_q_.pop_front();
  } else if (!normal_q_.empty()) {
    job = normal_q_.front();
    normal_q_.pop_front();
  } else {
    return;
  }

  double extra_cycles = 0.0;
  if (job->cls == JobClass::kInterrupt) {
    extra_cycles = params_.interrupt_overhead_cycles;
  } else if (job->tid != core.last_tid) {
    // Thread switch: pay the cache-refill-dependent cost.
    sim::Cycles cost = mem_.context_switch_cycles();
    extra_cycles = cost;
    csw_cost_.record(cost);
    csw_count_.record();
    core.last_tid = job->tid;
  }

  const double cpi = mem_.effective_cpi(job->cls);
  const double slice_instr = job->remaining;
  const double service_s = (slice_instr * cpi + extra_cycles) / params_.freq_hz;

  core.busy = true;
  core.job = job;
  core.started = engine_.now();
  core.slice_instr = slice_instr;
  core.slice_cpi = cpi + (slice_instr > 0 ? extra_cycles / slice_instr : 0.0);
  update_busy(+1);
  core.completion = engine_.after(service_s, [this, core_idx] { complete(core_idx); });
}

void Processor::complete(int core_idx) {
  Core& core = cores_[core_idx];
  assert(core.busy);
  Job* job = core.job;
  instr_executed_.record(core.slice_instr);
  cycles_executed_.record(core.slice_instr * core.slice_cpi);
  mem_.note_instructions(job->cls, core.slice_instr);
  job->remaining = 0.0;
  core.busy = false;
  core.job = nullptr;
  update_busy(-1);
  // Keep the pipeline moving before resuming the finished job so queue
  // statistics are consistent when its continuation runs.
  auto resume = job->resume;
  dispatch(core_idx);
  resume.resume();
}

}  // namespace dclue::cpu
