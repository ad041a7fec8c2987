#pragma once

/// \file registry.hpp
/// The MetricsRegistry: one registration / lookup / snapshot / reset surface
/// for every collector in the simulation.
///
/// The registry owns no collector. Every subsystem keeps its collectors as
/// members, for hot-path locality, and hands the registry a non-owning
/// pointer via `bind()`. Binding is how NodeStats, links, disks etc. join
/// the registry without an indirection on their increment paths.
///
/// `gauge_fn` registers a sampled gauge: the callback runs at snapshot time
/// and the value is never reset — use it for externally-accumulated totals
/// (terminal fleet counters) and occupancy readings (cache pages, lock table
/// size).
///
/// `reset_window(now)` restarts the measurement window exactly the way the
/// pre-registry per-subsystem reset chains did: Counter/Accum/Tally/Histogram
/// clear, TimeWeightedAvg restarts its integral keeping the current level,
/// Gauge and gauge_fn keep their values.
///
/// Registration order is preserved and snapshots list metrics in that order,
/// keeping every consumer (reports, goldens) deterministic.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/obs/stats.hpp"
#include "sim/units.hpp"

namespace dclue::obs {

enum class MetricKind : std::uint8_t {
  kCounter,
  kGauge,
  kAccum,
  kTally,
  kTimeWeighted,
  kHistogram,
  kGaugeFn,
};

[[nodiscard]] const char* metric_kind_name(MetricKind kind);

/// One metric's state at snapshot time. Scalar kinds fill `value` only;
/// distribution kinds (tally, histogram) fill the sample-statistics block and
/// histograms additionally carry quantiles. Tallies and histograms also keep
/// a copy of the collector itself, so consumers can merge distributions
/// across entries exactly (core::summarize); JSON never prints the copy.
struct MetricValue {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;  ///< count / level / sum / mean / time-average, per kind
  std::uint64_t count = 0;
  double sum = 0.0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double stddev = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  Tally tally;                         ///< kTally only
  std::optional<Histogram> histogram;  ///< kHistogram only
};

/// A point-in-time copy of the whole registry. Detached from the live
/// collectors: safe to keep after the cluster is torn down, safe to ship
/// across threads.
struct Snapshot {
  sim::Time taken_at = 0.0;
  std::vector<MetricValue> metrics;

  /// Linear lookup by exact name; nullptr when absent.
  [[nodiscard]] const MetricValue* find(std::string_view name) const;

  /// Append the snapshot as a JSON array of metric objects (one line per
  /// metric) at the given indent. Doubles print with %.17g so round-trips
  /// are exact.
  void append_json(std::string& out, int indent) const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Sampled gauge: `fn` runs at snapshot time; never reset.
  void gauge_fn(std::string name, std::function<double()> fn);

  // -- bound metrics (subsystem-owned; registry holds a non-owning pointer,
  //    the collector must outlive the registry entry) ----------------------
  void bind(std::string name, Counter* c);
  void bind(std::string name, Gauge* g);
  void bind(std::string name, Accum* a);
  void bind(std::string name, Tally* t);
  void bind(std::string name, TimeWeightedAvg* tw);
  void bind(std::string name, Histogram* h);

  /// Window-reset hook for subsystems with internal per-instance collectors
  /// that are exposed through aggregate gauge_fn entries (e.g. a 96-spindle
  /// disk array): the hook runs during reset_window() so the subsystem's
  /// window restarts with everything else without registering hundreds of
  /// per-instance entries.
  void on_reset(std::function<void(sim::Time)> hook);

  /// Restart the measurement window for every resettable metric (and run
  /// the on_reset hooks).
  void reset_window(sim::Time now);

  [[nodiscard]] Snapshot snapshot(sim::Time now) const;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    std::string name;
    MetricKind kind;
    void* ptr = nullptr;  ///< typed per `kind`; null for gauge_fn entries
    std::function<double()> fn;
  };

  void add_entry(std::string name, MetricKind kind, void* ptr);

  std::vector<Entry> entries_;  ///< registration order
  std::vector<std::function<void(sim::Time)>> reset_hooks_;
};

}  // namespace dclue::obs
