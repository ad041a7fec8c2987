#pragma once

/// \file disk_array.hpp
/// Striped multi-spindle disk subsystem. A 50 K tpm-C TPC-C node is backed
/// by a large array of spindles (real submissions of the era used hundreds);
/// modeling the data store as one disk would understate IO parallelism by
/// orders of magnitude. Blocks are striped across spindles, so the per-table
/// elevator behaviour of each spindle is preserved.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "storage/disk.hpp"

namespace dclue::storage {

class DiskArray : public BlockDevice {
 public:
  DiskArray(sim::Engine& engine, std::string name, int spindles,
            DiskParams params) {
    for (int i = 0; i < spindles; ++i) {
      disks_.push_back(std::make_unique<Disk>(
          engine, name + "-" + std::to_string(i), params));
    }
  }

  sim::Task<bool> read(std::int64_t block, sim::Bytes bytes) override {
    return spindle(block).read(block / stride(), bytes);
  }
  sim::Task<bool> write(std::int64_t block, sim::Bytes bytes) override {
    return spindle(block).write(block / stride(), bytes);
  }

  /// Apply / clear a fault across every spindle (the injector degrades the
  /// whole array — a controller-path fault, not a single platter).
  void set_fault(double latency_factor, double error_rate, sim::Rng* rng) {
    for (auto& d : disks_) d->set_fault(latency_factor, error_rate, rng);
  }
  void clear_fault() {
    for (auto& d : disks_) d->clear_fault();
  }
  [[nodiscard]] std::uint64_t io_errors() const {
    std::uint64_t total = 0;
    for (const auto& d : disks_) total += d->io_errors();
    return total;
  }

  [[nodiscard]] std::uint64_t ops_completed() const override {
    std::uint64_t total = 0;
    for (const auto& d : disks_) total += d->ops_completed();
    return total;
  }
  [[nodiscard]] double avg_utilization() const {
    double u = 0.0;
    for (const auto& d : disks_) u += d->utilization();
    return u / static_cast<double>(disks_.size());
  }
  /// Mean request latency (queueing + service) across spindles.
  [[nodiscard]] obs::Tally latency() const {
    obs::Tally t;
    for (const auto& d : disks_) t.merge(d->latency());
    return t;
  }
  [[nodiscard]] obs::Tally service_time() const {
    obs::Tally t;
    for (const auto& d : disks_) t.merge(d->service_time());
    return t;
  }
  [[nodiscard]] int spindles() const { return static_cast<int>(disks_.size()); }
  [[nodiscard]] double max_utilization() const {
    double m = 0.0;
    for (const auto& d : disks_) m = std::max(m, d->utilization());
    return m;
  }
  [[nodiscard]] std::uint64_t max_ops() const {
    std::uint64_t m = 0;
    for (const auto& d : disks_) m = std::max(m, d->ops_completed());
    return m;
  }
  void reset_stats() {
    for (auto& d : disks_) d->reset_stats();
  }

  /// Register array-level aggregates under \p prefix ("node0.disk.data.").
  /// Per-spindle collectors stay internal (a 96-spindle array would flood
  /// the registry); their windows follow the registry via a reset hook, and
  /// the aggregates are sampled at snapshot time.
  void register_metrics(obs::MetricsRegistry& reg, const std::string& prefix) {
    reg.on_reset([this](sim::Time) { reset_stats(); });
    reg.gauge_fn(prefix + "ops",
                 [this] { return static_cast<double>(ops_completed()); });
    reg.gauge_fn(prefix + "avg_utilization",
                 [this] { return avg_utilization(); });
    reg.gauge_fn(prefix + "max_utilization",
                 [this] { return max_utilization(); });
    reg.gauge_fn(prefix + "latency_mean",
                 [this] { return latency().mean(); });
    reg.gauge_fn(prefix + "service_time_mean",
                 [this] { return service_time().mean(); });
  }

 private:
  [[nodiscard]] std::int64_t stride() const {
    return static_cast<std::int64_t>(disks_.size());
  }
  Disk& spindle(std::int64_t block) {
    return *disks_[static_cast<std::size_t>(block % stride())];
  }

  std::vector<std::unique_ptr<Disk>> disks_;
};

}  // namespace dclue::storage
