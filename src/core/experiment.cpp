#include "core/experiment.hpp"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <type_traits>

#include "sim/sweep.hpp"

namespace dclue::core {

RunReport run_experiment(const ClusterConfig& cfg) {
  Cluster cluster(cfg);
  return cluster.run();
}

RunReport run_experiment_avg(ClusterConfig cfg, int replications) {
  RunReport avg;
  for (int r = 0; r < replications; ++r) {
    cfg.seed = cfg.seed * 1315423911ULL + 17;
    RunReport one = run_experiment(cfg);
    const double k = 1.0 / static_cast<double>(r + 1);
    visit_fields(
        [k](const char*, auto& acc, const auto& v) {
          using Field = std::decay_t<decltype(acc)>;
          if constexpr (std::is_same_v<Field, double>) {
            acc += (v - acc) * k;  // running mean
          } else if constexpr (std::is_same_v<Field, std::uint64_t>) {
            acc += v;  // counters add up over replications
          } else {
            acc = v;  // config echo: the same in every replication
          }
        },
        avg, one);
    // The registry snapshot is kept from the last replication (averaging
    // arbitrary metric kinds is not meaningful).
    avg.registry = std::move(one.registry);
  }
  return avg;
}

std::vector<RunReport> run_experiments(const std::vector<ClusterConfig>& cfgs,
                                       int jobs) {
  return sim::sweep_map<RunReport>(
      cfgs.size(), jobs, [&cfgs](std::size_t i) { return run_experiment(cfgs[i]); });
}

std::vector<RunReport> run_experiments(const std::vector<ClusterConfig>& cfgs) {
  return run_experiments(cfgs, sim::sweep_jobs());
}

ClusterConfig default_config() {
  ClusterConfig cfg;
  if (const char* fast = std::getenv("REPRO_FAST"); fast && fast[0] == '1') {
    cfg.warmup = 3.0;
    cfg.measure = 8.0;
  }
  return cfg;
}

SeriesTable::SeriesTable(std::string title) : title_(std::move(title)) {}

void SeriesTable::add_column(std::string header) {
  headers_.push_back(std::move(header));
}

void SeriesTable::add_row(const std::vector<double>& values) {
  rows_.push_back(values);
}

void SeriesTable::print() const {
  std::printf("\n== %s ==\n", title_.c_str());
  for (const auto& h : headers_) std::printf("%16s", h.c_str());
  std::printf("\n");
  for (const auto& row : rows_) {
    for (double v : row) std::printf("%16.3f", v);
    std::printf("\n");
  }
  // CSV block for scripted consumption.
  std::printf("# csv: ");
  for (std::size_t i = 0; i < headers_.size(); ++i) {
    std::printf("%s%s", headers_[i].c_str(), i + 1 < headers_.size() ? "," : "\n");
  }
  for (const auto& row : rows_) {
    std::printf("# csv: ");
    for (std::size_t i = 0; i < row.size(); ++i) {
      std::printf("%.6g%s", row[i], i + 1 < row.size() ? "," : "\n");
    }
  }
  std::fflush(stdout);
}

}  // namespace dclue::core
