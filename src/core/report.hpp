#pragma once

/// \file report.hpp
/// Aggregated run outcome (RunReport), derived from the metrics-registry
/// snapshot alone by summarize(), plus the machine-readable RunReport JSON
/// writer every figure bench emits (`--report`). One schema —
/// "dclue.run_report.v1" — is consumed by scripts/check_report.py and
/// scripts/bench_compare.py; the full snapshot rides along with each sweep
/// point so derived observables never need bench-side plumbing.

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "core/config.hpp"
#include "sim/obs/registry.hpp"

namespace dclue::core {

/// Aggregated run outcome, scaled back to original-system units.
struct RunReport {
  int nodes = 0;
  double affinity = 0.0;
  double measure_seconds = 0.0;  ///< scaled sim time measured

  double tpmc = 0.0;              ///< new-orders/min, unscaled equivalent
  double txn_rate = 0.0;          ///< all txns/sec, scaled domain
  double txns = 0.0;

  double ipc_control_per_txn = 0.0;
  double ipc_data_per_txn = 0.0;
  double control_msg_delay_ms = 0.0;  ///< unscaled ms
  double lock_waits_per_txn = 0.0;
  double lock_wait_time_ms = 0.0;     ///< unscaled ms
  double lock_failures_per_txn = 0.0;
  double buffer_hit_ratio = 0.0;
  double disk_reads_per_txn = 0.0;
  double remote_fetch_per_txn = 0.0;

  double avg_active_threads = 0.0;
  double avg_context_switch_cycles = 0.0;
  double avg_cpi = 0.0;
  double cpu_utilization = 0.0;

  double inter_lata_mbps = 0.0;  ///< unscaled equivalent DBMS+cross traffic
  std::uint64_t fabric_drops = 0;
  double abort_rate = 0.0;

  // Latency budget of an average committed transaction (unscaled ms).
  double txn_ms = 0.0;
  double txn_phase1_ms = 0.0;
  double txn_lock_ms = 0.0;
  double txn_log_ms = 0.0;
  double txn_apply_ms = 0.0;

  double ftp_carried_mbps = 0.0;  ///< unscaled

  // Client-side accounting
  double business_txns = 0.0;
  std::uint64_t admission_drops = 0;
  std::uint64_t client_conn_failures = 0;

  // YCSB workload family (zero on TPC-C runs): keyed ops completed in the
  // measure window, their rate in the scaled domain, and open-loop client
  // sojourn quantiles (queue wait + service, unscaled ms) from the merged
  // per-fleet histograms.
  double ycsb_ops = 0.0;
  double ycsb_op_rate = 0.0;
  double sojourn_p50_ms = 0.0;
  double sojourn_p99_ms = 0.0;

  /// Number of parallel DES shards that produced this point (0 = legacy
  /// single-engine run).
  int shard_count = 0;

  /// Fabric transport the cluster ran on (net::TransportKind: 0 = tcp,
  /// 1 = rdma). The config echo carries the spec string; this field is the
  /// parsed value so twin sweeps can be told apart numerically.
  int transport = 0;

  /// Full metrics-registry snapshot at collection time (every probe in the
  /// stack, node-prefixed); every field above except shard_count is derived
  /// from it. Averaged replications keep the last replication's snapshot.
  obs::Snapshot registry;
};

/// The report of a run of \p cfg, derived from its end-of-run registry
/// \p snapshot alone, which becomes `registry`; shard_count stays 0. Throws
/// std::logic_error when a metric it reads is missing, or when a per-node,
/// per-fleet or per-LATA metric lacks exactly one entry per node, fleet or
/// LATA of \p cfg.
[[nodiscard]] RunReport summarize(const ClusterConfig& cfg,
                                  obs::Snapshot snapshot);

/// Visit every scalar field in the canonical order (the golden fixture's
/// order), walking one or more reports in step: `fn(name, field...)` gets
/// the same field of each report, by reference. A field's type says what it
/// holds: a `double` is a measured value, a `std::uint64_t` a counter, and an
/// `int` an echo of the configuration, equal in every replication of a
/// point. This list only fixes names and order for fixtures, reports and
/// replication averages; each value comes from summarize(). A new run
/// outcome is a registry metric; it becomes a field only when a figure needs
/// it as a scalar, as one line here plus one line in summarize().
template <typename Fn, typename... Reports>
void visit_fields(Fn&& fn, Reports&... r) {
  fn("nodes", r.nodes...);
  fn("affinity", r.affinity...);
  fn("measure_seconds", r.measure_seconds...);
  fn("tpmc", r.tpmc...);
  fn("txn_rate", r.txn_rate...);
  fn("txns", r.txns...);
  fn("ipc_control_per_txn", r.ipc_control_per_txn...);
  fn("ipc_data_per_txn", r.ipc_data_per_txn...);
  fn("control_msg_delay_ms", r.control_msg_delay_ms...);
  fn("lock_waits_per_txn", r.lock_waits_per_txn...);
  fn("lock_wait_time_ms", r.lock_wait_time_ms...);
  fn("lock_failures_per_txn", r.lock_failures_per_txn...);
  fn("buffer_hit_ratio", r.buffer_hit_ratio...);
  fn("disk_reads_per_txn", r.disk_reads_per_txn...);
  fn("remote_fetch_per_txn", r.remote_fetch_per_txn...);
  fn("avg_active_threads", r.avg_active_threads...);
  fn("avg_context_switch_cycles", r.avg_context_switch_cycles...);
  fn("avg_cpi", r.avg_cpi...);
  fn("cpu_utilization", r.cpu_utilization...);
  fn("inter_lata_mbps", r.inter_lata_mbps...);
  fn("fabric_drops", r.fabric_drops...);
  fn("abort_rate", r.abort_rate...);
  fn("txn_ms", r.txn_ms...);
  fn("txn_phase1_ms", r.txn_phase1_ms...);
  fn("txn_lock_ms", r.txn_lock_ms...);
  fn("txn_log_ms", r.txn_log_ms...);
  fn("txn_apply_ms", r.txn_apply_ms...);
  fn("ftp_carried_mbps", r.ftp_carried_mbps...);
  fn("business_txns", r.business_txns...);
  fn("admission_drops", r.admission_drops...);
  fn("client_conn_failures", r.client_conn_failures...);
  fn("shard_count", r.shard_count...);
  fn("transport", r.transport...);
  fn("ycsb_ops", r.ycsb_ops...);
  fn("ycsb_op_rate", r.ycsb_op_rate...);
  fn("sojourn_p50_ms", r.sojourn_p50_ms...);
  fn("sojourn_p99_ms", r.sojourn_p99_ms...);
}

/// Read-only walk of one report: `scalar(name, double)` receives the
/// measured values, `integer(name, u64)` the counters and config echoes.
template <typename ScalarFn, typename IntegerFn>
void for_each_field(const RunReport& r, ScalarFn&& scalar, IntegerFn&& integer) {
  visit_fields(
      [&](const char* name, const auto& v) {
        if constexpr (std::is_same_v<std::decay_t<decltype(v)>, double>) {
          scalar(name, v);
        } else {
          integer(name, static_cast<std::uint64_t>(v));
        }
      },
      r);
}

/// One sweep point of a RunReport file: the axis value, the exact
/// configuration it ran, and the outcome.
struct ReportPoint {
  double axis_value = 0.0;
  ClusterConfig config;
  RunReport report;
};

/// Serialize a full bench run ("dclue.run_report.v1"): bench identity, sweep
/// axis, and one entry per point with config / report / registry sections.
[[nodiscard]] std::string run_report_json(const std::string& bench,
                                          const std::string& title,
                                          const std::string& sweep_axis,
                                          const std::vector<ReportPoint>& points);

/// Write run_report_json() to \p path; false on I/O failure.
bool write_run_report(const std::string& path, const std::string& bench,
                      const std::string& title, const std::string& sweep_axis,
                      const std::vector<ReportPoint>& points);

}  // namespace dclue::core
