#pragma once

/// \file node_stats.hpp
/// Per-node measurement accumulators. All quantities are measured from the
/// functioning simulation (DCLUE's philosophy) over the post-warmup window.
///
/// NodeStats is a plain default-constructible struct so unit tests can stand
/// one up without a cluster; inside a Cluster every collector is registered
/// with the obs::MetricsRegistry via register_into(), which makes the
/// registry's reset_window()/snapshot() the single stats surface for the
/// whole run.

#include <array>
#include <cstdint>
#include <string>

#include "sim/obs/registry.hpp"
#include "sim/obs/stats.hpp"
#include "sim/units.hpp"

namespace dclue::core {

/// Mirrors workload::kNumTxnTypes (core cannot include workload headers);
/// enum order in workload/tpcc_txn.hpp: new-order, payment, order-status,
/// delivery, stock-level.
inline constexpr int kTxnTypeSlots = 5;
inline constexpr const char* kTxnTypeNames[kTxnTypeSlots] = {
    "new_order", "payment", "order_status", "delivery", "stock_level"};

/// Per-node measurement accumulators.
struct NodeStats {
  // Transactions
  obs::Counter txns_committed;
  obs::Counter txns_aborted;
  obs::Counter new_orders_committed;

  // IPC (cache fusion + lock + log traffic)
  obs::Counter ipc_control_sent;
  obs::Counter ipc_data_sent;
  obs::Counter ipc_control_bytes;
  obs::Counter ipc_data_bytes;
  obs::Tally control_msg_delay;  ///< send->receive end-to-end

  // Locking
  obs::Counter lock_acquisitions;
  obs::Counter lock_waits;
  obs::Counter lock_failures;  ///< release-and-retry events
  obs::Tally lock_wait_time;

  // Buffer cache / storage
  obs::Counter buffer_hits;
  obs::Counter buffer_misses;
  obs::Counter remote_fetches;  ///< pages served from another node's cache
  std::array<obs::Counter, 16> remote_by_table{};  ///< indexed by TableId
  std::array<obs::Counter, 16> remote_index_by_table{};
  std::array<obs::Counter, 16> disk_by_table{};
  std::array<obs::Counter, 16> disk_index_by_table{};
  obs::Counter disk_reads;
  obs::Counter iscsi_reads;

  // Transaction time breakdown: where a transaction's latency goes
  // (all values in scaled seconds, one sample per committed transaction).
  obs::Tally t_total;
  obs::Tally t_phase1;     ///< reads/latches incl. page fetches
  obs::Tally t_locks;      ///< phase-2 global lock conversion (+retries)
  obs::Tally t_log;        ///< WAL flush at commit
  obs::Tally t_apply;      ///< version creation + row mutation + commit work
  /// Per-transaction-type total latency (same units as t_total).
  std::array<obs::Tally, kTxnTypeSlots> t_by_type{};

  // Dirty-page production since the last checkpoint (bytes of log written
  // by transactions that mutated pages at THIS node, independent of where
  // the log itself is stored). Consumed by the checkpoint extension;
  // deliberately NOT a windowed metric — it survives stat resets.
  sim::Bytes dirty_bytes_accum = 0;

  // Live stage gauges (where in-flight transactions currently sit); purely
  // diagnostic, not part of the paper's figures. Gauges persist across
  // window resets — the transactions are still in flight.
  obs::Gauge in_phase1;
  obs::Gauge in_fusion;
  obs::Gauge in_lock_wait;
  obs::Gauge in_log_flush;
  obs::Gauge in_dir_rpc;
  obs::Gauge in_block_wait;
  obs::Gauge in_disk;
  obs::Gauge in_inflight_wait;

  /// Bind every collector into \p reg under "node<id>." prefixes. The
  /// registry then owns window resets and snapshots for this node.
  void register_into(obs::MetricsRegistry& reg, int node_id) {
    const std::string p = "node" + std::to_string(node_id) + ".";
    reg.bind(p + "txn.committed", &txns_committed);
    reg.bind(p + "txn.aborted", &txns_aborted);
    reg.bind(p + "txn.new_orders_committed", &new_orders_committed);
    reg.bind(p + "ipc.control_sent", &ipc_control_sent);
    reg.bind(p + "ipc.data_sent", &ipc_data_sent);
    reg.bind(p + "ipc.control_bytes", &ipc_control_bytes);
    reg.bind(p + "ipc.data_bytes", &ipc_data_bytes);
    reg.bind(p + "ipc.control_msg_delay_s", &control_msg_delay);
    reg.bind(p + "lock.acquisitions", &lock_acquisitions);
    reg.bind(p + "lock.waits", &lock_waits);
    reg.bind(p + "lock.failures", &lock_failures);
    reg.bind(p + "lock.wait_time_s", &lock_wait_time);
    reg.bind(p + "cache.hits", &buffer_hits);
    reg.bind(p + "cache.misses", &buffer_misses);
    reg.bind(p + "cache.remote_fetches", &remote_fetches);
    for (std::size_t t = 0; t < remote_by_table.size(); ++t) {
      const std::string suffix = ".table" + std::to_string(t);
      reg.bind(p + "cache.remote" + suffix, &remote_by_table[t]);
      reg.bind(p + "cache.remote_index" + suffix, &remote_index_by_table[t]);
      reg.bind(p + "disk.data" + suffix, &disk_by_table[t]);
      reg.bind(p + "disk.index" + suffix, &disk_index_by_table[t]);
    }
    reg.bind(p + "disk.reads", &disk_reads);
    reg.bind(p + "disk.iscsi_reads", &iscsi_reads);
    reg.bind(p + "txn.t_total_s", &t_total);
    reg.bind(p + "txn.t_phase1_s", &t_phase1);
    reg.bind(p + "txn.t_locks_s", &t_locks);
    reg.bind(p + "txn.t_log_s", &t_log);
    reg.bind(p + "txn.t_apply_s", &t_apply);
    for (int t = 0; t < kTxnTypeSlots; ++t) {
      reg.bind(p + "txn.t_total_s." + kTxnTypeNames[t],
               &t_by_type[static_cast<std::size_t>(t)]);
    }
    reg.gauge_fn(p + "log.dirty_bytes_accum",
                 [this] { return static_cast<double>(dirty_bytes_accum); });
    reg.bind(p + "stage.in_phase1", &in_phase1);
    reg.bind(p + "stage.in_fusion", &in_fusion);
    reg.bind(p + "stage.in_lock_wait", &in_lock_wait);
    reg.bind(p + "stage.in_log_flush", &in_log_flush);
    reg.bind(p + "stage.in_dir_rpc", &in_dir_rpc);
    reg.bind(p + "stage.in_block_wait", &in_block_wait);
    reg.bind(p + "stage.in_disk", &in_disk);
    reg.bind(p + "stage.in_inflight_wait", &in_inflight_wait);
  }
};

}  // namespace dclue::core
