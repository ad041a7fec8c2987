#pragma once

/// \file experiment.hpp
/// Helpers for the figure-reproduction benches: run a configuration, print
/// aligned series tables (the same rows/series the paper plots), and emit
/// machine-readable CSV alongside.

#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "core/config.hpp"
#include "core/report.hpp"

namespace dclue::core {

/// Run one configuration to completion and return the report.
RunReport run_experiment(const ClusterConfig& cfg);

/// Run \p replications with different seeds and average the reported
/// metrics (the paper notes "wide variations in transaction
/// characteristics"; replication tames them).
RunReport run_experiment_avg(ClusterConfig cfg, int replications);

/// Run every configuration point and return the reports in input order.
/// Points run concurrently on the sweep pool when REPRO_JOBS > 1 (see
/// sim/sweep.hpp); each point owns its Engine and RNG streams, so the
/// reports are bit-identical to a serial sweep. The \p jobs overloads pin
/// the worker count explicitly (used by the determinism tests).
std::vector<RunReport> run_experiments(const std::vector<ClusterConfig>& cfgs);
std::vector<RunReport> run_experiments(const std::vector<ClusterConfig>& cfgs,
                                       int jobs);

/// Column-oriented series printer.
class SeriesTable {
 public:
  explicit SeriesTable(std::string title);

  void add_column(std::string header);
  void add_row(const std::vector<double>& values);
  /// Print aligned table plus a `# csv:`-prefixed CSV block.
  void print() const;

 private:
  std::string title_;
  std::vector<std::string> headers_;
  std::vector<std::vector<double>> rows_;
};

/// Honor REPRO_FAST=1 (shorter windows for CI) when building configs.
ClusterConfig default_config();

}  // namespace dclue::core
