#pragma once

/// Shared helpers for the figure-reproduction benches.
///
/// Every figure bench builds a bench::Scenario: it owns the banner, the
/// sweep-point list, the run (parallel via REPRO_JOBS, or serial with a
/// per-point tracer when --trace is given), and the RunReport JSON emission
/// that scripts/check_report.py and scripts/bench_compare.py consume.
///
/// Command line (every fig/ablation/ext bench). The overrides below apply
/// to every queued point and to the open-loop benches' capacity probes
/// (Scenario::open_loop_rates) alike:
///   --report[=PATH]   RunReport JSON path (default REPORT_<id>.json)
///   --no-report       skip the RunReport file
///   --trace[=PATH]    enable event tracing; Chrome trace JSON to PATH
///                     (default TRACE_<id>.json). Points run serially so
///                     each gets its own pid in the merged trace.
///   --shards=N        run every queued point with N parallel DES shards
///                     (0 = legacy single engine). Shard mode requires
///                     affinity == 1.0 and no crash/restart faults; results
///                     are identical for every N > 0 but differ from N = 0
///                     (domain-minted vs global event keys).
///   --transport=SPEC  cluster-fabric transport for every queued point:
///                     "tcp" (the paper's unified-Ethernet baseline, the
///                     default) or "rdma" (kernel-bypass counterfactual;
///                     see EXPERIMENTS.md "modern fabric"). DB clients stay
///                     on TCP either way.
///   --workload=SPEC   workload family for every queued point: "tpcc"
///                     (default) or "ycsb-a".."ycsb-f" (see
///                     src/workload/ycsb.hpp for the mix table).
///   --theta=F         YCSB zipfian skew parameter (cfg.ycsb_theta).
///   --dist=NAME       YCSB key distribution override: uniform | zipfian |
///                     latest (empty = the mix's default).
///   --records=N       YCSB keyed-table size (cfg.ycsb_records).
///   --arrival=SPEC    YCSB open-loop arrival process, "poisson:RATE" or
///                     "fixed:RATE" (cluster-wide ops per scaled second).
///   --shift=N         YCSB dynamic-skew shifts per run: the zipfian
///                     hotspot migrates N times across the keyspace
///                     (0 = static hotspot).

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "net/transport.hpp"
#include "sim/obs/trace.hpp"
#include "sim/sweep.hpp"
#include "workload/tpcc_txn.hpp"
#include "workload/ycsb.hpp"

namespace dclue::bench {

inline bool fast_mode() {
  const char* v = std::getenv("REPRO_FAST");
  return v && v[0] == '1';
}

/// Node counts used for cluster-size sweeps (the paper plots 1..24).
inline std::vector<int> node_sweep() {
  if (fast_mode()) return {1, 2, 4, 8};
  return {1, 2, 3, 4, 6, 8, 10, 12, 16, 24};
}

inline core::ClusterConfig base_config() {
  core::ClusterConfig cfg = core::default_config();
  cfg.seed = 7;
  return cfg;
}

inline void banner(const char* fig, const char* what) {
  std::printf("=====================================================\n");
  std::printf("%s: %s\n", fig, what);
  std::printf("(paper: Kant & Sahoo, \"Clustered DBMS Scalability under\n");
  std::printf(" Unified Ethernet Fabric\"; shapes, not absolutes)\n");
  std::printf("=====================================================\n");
  std::fflush(stdout);
}

/// One figure bench: banner + deferred sweep + observability wiring.
///
/// Benches enqueue every (axis value, configuration) point up front, run
/// them all at once, then read the reports back by the index add() returned.
/// Each point is an independent deterministic simulation, so the tables
/// printed are identical whatever the worker count. After run()/run_avg()
/// the Scenario writes the RunReport JSON (unless --no-report) and, when
/// tracing, the merged Chrome trace.
class Scenario {
 public:
  /// \p id names the output files (REPORT_<id>.json); \p fig / \p what feed
  /// the banner; \p sweep_axis labels the report's axis column.
  Scenario(std::string id, const char* fig, const char* what,
           std::string sweep_axis, int argc = 0, char** argv = nullptr)
      : id_(std::move(id)),
        title_(std::string(fig) + ": " + what),
        sweep_axis_(std::move(sweep_axis)),
        report_path_("REPORT_" + id_ + ".json") {
    banner(fig, what);
    for (int i = 1; i < argc; ++i) parse_arg(argv[i]);
  }

  [[nodiscard]] bool tracing() const { return !trace_path_.empty(); }

  /// Queue a point; returns its index into the report vector.
  std::size_t add(double axis_value, const core::ClusterConfig& cfg) {
    axis_values_.push_back(axis_value);
    cfgs_.push_back(cfg);
    return cfgs_.size() - 1;
  }

  /// Run all queued points (honors REPRO_JOBS; serial when tracing) and
  /// emit the report/trace files.
  void run() {
    run_with([](const core::ClusterConfig& cfg, std::size_t) {
      return core::run_experiment(cfg);
    });
  }

  /// Like run(), but each point averages \p replications seeds exactly as
  /// run_experiment_avg does (which reseeds even when replications == 1).
  void run_avg(int replications) {
    run_with([replications](const core::ClusterConfig& cfg, std::size_t) {
      return core::run_experiment_avg(cfg, replications);
    });
  }

  /// Capacity probes for the open-loop benches, which measure closed-loop
  /// capacity first and then sweep at a fraction of it: run each of \p cfgs
  /// with this bench's overrides (untraced, and outside the RunReport) and
  /// return, per config, the open-loop business-transaction rate per node
  /// that offers 92 % of the measured capacity.
  [[nodiscard]] std::vector<double> open_loop_rates(
      std::vector<core::ClusterConfig> cfgs) const {
    // Mean TPC-C transactions per business transaction: a new-order, a
    // payment, and each minor type in proportion to the new-order share
    // (workload::TpccInputGenerator::business_transaction).
    constexpr double kTxnsPerBt =
        2.0 + (workload::kTxnMix[2] + workload::kTxnMix[3] + workload::kTxnMix[4]) /
                  workload::kTxnMix[0];
    for (core::ClusterConfig& cfg : cfgs) apply_overrides(cfg);
    const std::vector<core::RunReport> caps = core::run_experiments(cfgs);
    std::vector<double> rates;
    rates.reserve(caps.size());
    for (std::size_t i = 0; i < caps.size(); ++i) {
      rates.push_back(0.92 * (caps[i].txn_rate / cfgs[i].nodes) / kTxnsPerBt);
    }
    return rates;
  }

  /// Run every queued point through a custom runner — for benches that drive
  /// a Cluster by hand (e.g. crash/recovery). \p run_one takes
  /// (const core::ClusterConfig&, std::size_t point_index) and returns the
  /// point's RunReport; side outputs can be stored by index. Points run
  /// through the sweep pool normally, serially (with a per-point tracer
  /// installed) under --trace.
  template <typename RunFn>
  void run_with(RunFn&& run_one) {
    for (core::ClusterConfig& cfg : cfgs_) apply_overrides(cfg);
    if (tracing()) {
      obs::Tracer merged;
      std::size_t total_events = 0;
      reports_.reserve(cfgs_.size());
      for (std::size_t i = 0; i < cfgs_.size(); ++i) {
        obs::Tracer point_tracer(static_cast<std::uint32_t>(i));
        obs::TracerScope scope(&point_tracer);
        reports_.push_back(run_one(cfgs_[i], i));
        total_events += point_tracer.size();
        merged.append(point_tracer);
      }
      if (!merged.write_json(trace_path_)) {
        std::fprintf(stderr, "%s: failed to write %s\n", id_.c_str(),
                     trace_path_.c_str());
        std::exit(1);
      }
      std::printf("wrote %s (%zu events)\n", trace_path_.c_str(),
                  total_events);
    } else {
      reports_ = sim::sweep_map<core::RunReport>(
          cfgs_.size(), sim::sweep_jobs(),
          [&](std::size_t i) { return run_one(cfgs_[i], i); });
    }
    emit();
  }

  const core::RunReport& operator[](std::size_t i) const {
    return reports_.at(i);
  }
  [[nodiscard]] std::size_t size() const { return cfgs_.size(); }

 private:
  /// The command line's overrides, applied to one point.
  void apply_overrides(core::ClusterConfig& cfg) const {
    if (shards_override_ >= 0) cfg.shards = shards_override_;
    if (!transport_override_.empty()) cfg.transport_spec = transport_override_;
    if (!workload_override_.empty()) cfg.workload_spec = workload_override_;
    if (theta_override_ >= 0.0) cfg.ycsb_theta = theta_override_;
    if (!dist_override_.empty()) cfg.ycsb_dist = dist_override_;
    if (records_override_ > 0) cfg.ycsb_records = records_override_;
    if (!arrival_override_.empty()) cfg.ycsb_arrival = arrival_override_;
    if (shift_override_ >= 0) cfg.ycsb_shift = shift_override_;
  }

  void parse_arg(const char* arg) {
    if (std::strcmp(arg, "--no-report") == 0) {
      report_path_.clear();
    } else if (std::strcmp(arg, "--report") == 0) {
      report_path_ = "REPORT_" + id_ + ".json";
    } else if (std::strncmp(arg, "--report=", 9) == 0) {
      report_path_ = arg + 9;
    } else if (std::strcmp(arg, "--trace") == 0) {
      trace_path_ = "TRACE_" + id_ + ".json";
    } else if (std::strncmp(arg, "--trace=", 8) == 0) {
      trace_path_ = arg + 8;
    } else if (std::strncmp(arg, "--shards=", 9) == 0) {
      shards_override_ = std::atoi(arg + 9);
    } else if (std::strncmp(arg, "--transport=", 12) == 0) {
      const char* spec = arg + 12;
      if (!net::try_parse_transport_spec(spec)) {
        std::fprintf(stderr,
                     "%s: unknown transport '%s' (valid: tcp, rdma)\n",
                     id_.c_str(), spec);
        std::exit(2);
      }
      transport_override_ = spec;
    } else if (std::strncmp(arg, "--workload=", 11) == 0) {
      const char* spec = arg + 11;
      if (std::strcmp(spec, "tpcc") != 0 && !workload::is_ycsb(spec)) {
        std::fprintf(stderr,
                     "%s: unknown workload '%s' (valid: tpcc, ycsb-a..f)\n",
                     id_.c_str(), spec);
        std::exit(2);
      }
      workload_override_ = spec;
    } else if (std::strncmp(arg, "--theta=", 8) == 0) {
      theta_override_ = std::atof(arg + 8);
    } else if (std::strncmp(arg, "--dist=", 7) == 0) {
      dist_override_ = arg + 7;
    } else if (std::strncmp(arg, "--records=", 10) == 0) {
      records_override_ = std::atoll(arg + 10);
    } else if (std::strncmp(arg, "--arrival=", 10) == 0) {
      arrival_override_ = arg + 10;
    } else if (std::strncmp(arg, "--shift=", 8) == 0) {
      shift_override_ = std::atoi(arg + 8);
    } else {
      std::fprintf(stderr,
                   "%s: unknown option '%s' (expected --report[=PATH] | "
                   "--no-report | --trace[=PATH] | --shards=N | "
                   "--transport=tcp|rdma | --workload=SPEC | --theta=F | "
                   "--dist=NAME | --records=N | --arrival=SPEC | "
                   "--shift=N)\n",
                   id_.c_str(), arg);
      std::exit(2);
    }
  }

  void emit() {
    if (report_path_.empty()) return;
    std::vector<core::ReportPoint> points;
    points.reserve(reports_.size());
    for (std::size_t i = 0; i < reports_.size(); ++i) {
      points.push_back(core::ReportPoint{axis_values_[i], cfgs_[i], reports_[i]});
    }
    if (!core::write_run_report(report_path_, id_, title_, sweep_axis_,
                                points)) {
      std::fprintf(stderr, "%s: failed to write %s\n", id_.c_str(),
                   report_path_.c_str());
      std::exit(1);
    }
    std::printf("wrote %s (%zu points)\n", report_path_.c_str(), points.size());
    std::fflush(stdout);
  }

  std::string id_;
  std::string title_;
  std::string sweep_axis_;
  std::string report_path_;  ///< empty = --no-report
  std::string trace_path_;   ///< empty = tracing off
  int shards_override_ = -1;  ///< --shards=N; -1 = keep each point's setting
  std::string transport_override_;  ///< --transport=SPEC; empty = per-point
  std::string workload_override_;   ///< --workload=SPEC; empty = per-point
  double theta_override_ = -1.0;    ///< --theta=F; negative = per-point
  std::string dist_override_;       ///< --dist=NAME; empty = per-point
  std::int64_t records_override_ = 0;  ///< --records=N; 0 = per-point
  std::string arrival_override_;    ///< --arrival=SPEC; empty = per-point
  int shift_override_ = -1;         ///< --shift=N; -1 = per-point
  std::vector<double> axis_values_;
  std::vector<core::ClusterConfig> cfgs_;
  std::vector<core::RunReport> reports_;
};

}  // namespace dclue::bench
