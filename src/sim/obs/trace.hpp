#pragma once

/// \file trace.hpp
/// Event tracer emitting Chrome trace-event JSON (load the output in
/// chrome://tracing or Perfetto). Spans ("X" complete events), instants
/// ("i") and counter tracks ("C") are recorded against simulated time;
/// timestamps convert to microseconds on export.
///
/// Overhead contract — the disabled path must preserve the zero-allocation
/// datapath guarantees (0 heap allocations and 5.333 events per segment,
/// ZeroAlloc.TcpBulkTransferSteadyState): tracing is OFF until a tracer is
/// installed, and until then each probe is one thread-local load plus a null
/// check. The probe arguments are not evaluated, and there are no engine
/// events, no allocations and no stores on the disabled path.
///
/// Probe sites pass string literals for `cat`/`name` (the tracer stores the
/// pointers, not copies) and the current simulated time; the only allocation
/// with tracing ON is the event vector's amortized growth.
///
/// The tracer handle is thread-local so the parallel sweep pool
/// (sim/sweep.hpp) can trace one point per worker without synchronization;
/// install with TracerScope (RAII) around a simulation run.

#include <cstdint>
#include <string>
#include <vector>

#include "sim/units.hpp"

namespace dclue::obs {

/// One Chrome trace event. `cat`/`name` must be string literals (or
/// otherwise outlive the tracer).
struct TraceEvent {
  const char* cat;
  const char* name;
  double ts;      ///< simulated seconds
  double aux;     ///< duration (span) or value (counter); unused for instants
  std::uint32_t tid;
  char ph;        ///< 'X' span, 'i' instant, 'C' counter
};

class Tracer {
 public:
  explicit Tracer(std::uint32_t pid = 0) : pid_(pid) {}

  /// Span covering [start, end] in simulated time ("X" complete event).
  void record_span(const char* cat, const char* name, sim::Time start,
                   sim::Time end, std::uint32_t tid = 0) {
    events_.push_back({cat, name, start, end - start, tid, 'X'});
  }

  /// Point event ("i" instant, thread scope).
  void record_instant(const char* cat, const char* name, sim::Time ts,
                      std::uint32_t tid = 0) {
    events_.push_back({cat, name, ts, 0.0, tid, 'i'});
  }

  /// Counter-track sample ("C"); one series per (name, tid).
  void record_counter(const char* cat, const char* name, sim::Time ts,
                      double value, std::uint32_t tid = 0) {
    events_.push_back({cat, name, ts, value, tid, 'C'});
  }

  [[nodiscard]] std::uint32_t pid() const { return pid_; }
  [[nodiscard]] std::size_t size() const { return events_.size(); }
  [[nodiscard]] const std::vector<TraceEvent>& events() const { return events_; }
  void clear() { events_.clear(); }

  /// Serialize as a Chrome trace: {"traceEvents": [...]}. Timestamps are
  /// exported in microseconds of simulated time.
  [[nodiscard]] std::string to_json() const;

  /// Write to_json() to `path`; false on I/O failure.
  bool write_json(const std::string& path) const;

  /// Append another tracer's events (e.g. per-worker tracers merged into
  /// one file; each keeps its pid in the merged stream).
  void append(const Tracer& other);

 private:
  struct ForeignEvent {
    TraceEvent ev;
    std::uint32_t pid;
  };

  std::vector<TraceEvent> events_;
  std::vector<ForeignEvent> foreign_;  ///< from append(); preserve source pid
  std::uint32_t pid_;
};

/// Current thread's tracer; null when tracing is off (the default).
[[nodiscard]] Tracer* tracer() noexcept;

/// Install `t` (may be null) as the current thread's tracer; returns the
/// previous one. Prefer TracerScope.
Tracer* set_tracer(Tracer* t) noexcept;

/// RAII: install a tracer for the current scope, restore the previous one
/// on exit.
class TracerScope {
 public:
  explicit TracerScope(Tracer* t) noexcept : prev_(set_tracer(t)) {}
  ~TracerScope() { set_tracer(prev_); }
  TracerScope(const TracerScope&) = delete;
  TracerScope& operator=(const TracerScope&) = delete;

 private:
  Tracer* prev_;
};

}  // namespace dclue::obs

// ---------------------------------------------------------------------------
// Probe macros. Without an installed tracer the arguments are not evaluated.
// ---------------------------------------------------------------------------

#define DCLUE_TRACE_SPAN(cat, name, t0, t1, tid)                        \
  do {                                                                  \
    if (::dclue::obs::Tracer* dclue_tr_ = ::dclue::obs::tracer())       \
      dclue_tr_->record_span((cat), (name), (t0), (t1), (tid));         \
  } while (0)
#define DCLUE_TRACE_INSTANT(cat, name, now, tid)                        \
  do {                                                                  \
    if (::dclue::obs::Tracer* dclue_tr_ = ::dclue::obs::tracer())       \
      dclue_tr_->record_instant((cat), (name), (now), (tid));           \
  } while (0)
#define DCLUE_TRACE_COUNTER(cat, name, now, value, tid)                 \
  do {                                                                  \
    if (::dclue::obs::Tracer* dclue_tr_ = ::dclue::obs::tracer())       \
      dclue_tr_->record_counter((cat), (name), (now), (value), (tid));  \
  } while (0)
