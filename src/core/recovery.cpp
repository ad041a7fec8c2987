#include "core/recovery.hpp"

#include <algorithm>
#include <cmath>

namespace dclue::core {

void CheckpointManager::start() {
  for (int i = 0; i < cluster_.config().nodes; ++i) node_loop(i);
}

std::uint64_t CheckpointManager::checkpoints_taken() const {
  std::uint64_t total = 0;
  for (int i = 0; i < cluster_.config().nodes; ++i) {
    total += const_cast<Cluster&>(cluster_).node(i).log_manager().checkpoints_taken();
  }
  return total;
}

sim::DetachedTask CheckpointManager::node_loop(int node_id) {
  auto& engine = cluster_.engine();
  Node& node = cluster_.node(node_id);
  sim::Rng rng(0xC0FFEE + static_cast<std::uint64_t>(node_id));
  for (;;) {
    co_await sim::delay_for(engine, interval_);
    auto& log = node.log_manager();
    // Write-back volume follows this node's own page mutations; under
    // centralized logging the log lives elsewhere but the dirty pages are
    // still flushed by their owner.
    const sim::Bytes dirty_bytes = node.stats().dirty_bytes_accum;
    node.stats().dirty_bytes_accum = 0;
    // Fuzzy checkpoint: write back roughly one page per page-worth of log
    // generated since the last checkpoint (bounded per cycle), with the
    // write-back IO batched across the array like a real page cleaner.
    const auto pages = std::min<sim::Bytes>(dirty_bytes / db::kPageBytes, 2'000);
    for (sim::Bytes p = 0; p < pages; p += 16) {
      auto wg = std::make_shared<sim::WaitGroup>(engine);
      const sim::Bytes batch = std::min<sim::Bytes>(16, pages - p);
      for (sim::Bytes b = 0; b < batch; ++b) {
        wg->add();
        sim::spawn([](Node& node, std::int64_t blk,
                      std::shared_ptr<sim::WaitGroup> wg) -> sim::Task<void> {
          co_await node.data_disk().write(blk, db::kPageBytes);
          wg->done();
        }(node, rng.uniform_int(0, 1 << 17), wg));
      }
      co_await wg->wait();
      pages_written_ += batch;
    }
    // Checkpoint record, made durable like any commit.
    log.append(512);
    co_await log.flush();
    log.mark_checkpoint();
    log.count_checkpoint();
  }
}

sim::Task<RecoveryReport> run_recovery(Cluster& cluster, int failed_node,
                                       RecoveryCosts costs) {
  const auto& cfg = cluster.config();
  auto& engine = cluster.engine();
  const int coordinator = (failed_node + 1) % cfg.nodes;
  Node& coord = cluster.node(coordinator);
  RecoveryReport report;
  const sim::Time start = engine.now();

  // --- gather: read the relevant log and ship it to the coordinator -------
  auto ship = [&](int source, sim::Bytes bytes) -> sim::Task<void> {
    if (bytes <= 0 || source == coordinator) co_return;
    // Stream in 64 KB data messages over the live IPC fabric.
    sim::Bytes remaining = bytes;
    while (remaining > 0) {
      const sim::Bytes chunk = std::min<sim::Bytes>(remaining, sim::kilobytes(64));
      remaining -= chunk;
      const std::uint64_t id = coord.ipc().new_req_id();
      cluster.node(source).ipc().send(coordinator, cluster::kBlockTransfer, chunk,
                                      nullptr, id);
      co_await coord.ipc().await_reply(id);
    }
  };

  if (cfg.central_logging && cfg.nodes > 1) {
    // One sequential scan of the central log (node 0).
    Node& log_node = cluster.node(0);
    const sim::Bytes bytes = log_node.log_manager().bytes_since_checkpoint();
    report.log_bytes = bytes;
    co_await log_node.log_disk().read(0, std::max<sim::Bytes>(bytes, 1));
    co_await ship(0, bytes);
  } else {
    // "Obtain logs from all nodes": every surviving node scans its own log
    // and ships it; the failed node's log disk is assumed readable (shared
    // or dual-ported), as Oracle-style recovery requires.
    for (int i = 0; i < cfg.nodes; ++i) {
      const sim::Bytes bytes = cluster.node(i).log_manager().bytes_since_checkpoint();
      report.log_bytes += bytes;
      co_await cluster.node(i).log_disk().read(0, std::max<sim::Bytes>(bytes, 1));
      co_await ship(i, bytes);
    }
  }
  report.records =
      static_cast<std::uint64_t>(report.log_bytes / costs.record_bytes);
  report.gather_seconds = engine.now() - start;

  // --- merge: timestamp sort across per-node logs (local logging only) ----
  const sim::Time merge_start = engine.now();
  if (!cfg.central_logging && cfg.nodes > 1 && report.records > 1) {
    const double n = static_cast<double>(report.records);
    const double pl = costs.merge_per_record * n * std::log2(n);
    co_await coord.processor().compute(pl, cpu::JobClass::kApplication, 0);
  }
  report.merge_seconds = engine.now() - merge_start;

  // --- redo: apply records, re-fetching a fraction of pages ----------------
  const sim::Time redo_start = engine.now();
  co_await coord.processor().compute(
      costs.redo_per_record * static_cast<double>(report.records),
      cpu::JobClass::kApplication, 0);
  const auto fetches = static_cast<sim::Bytes>(
      costs.page_fetch_fraction * static_cast<double>(report.records));
  sim::Rng rng(0xFEED);
  // Redo prefetches pages with deep IO concurrency (recovery is the one
  // consumer that can saturate the whole array).
  for (sim::Bytes f = 0; f < fetches; f += 64) {
    auto wg = std::make_shared<sim::WaitGroup>(engine);
    const sim::Bytes batch = std::min<sim::Bytes>(64, fetches - f);
    for (sim::Bytes b = 0; b < batch; ++b) {
      wg->add();
      sim::spawn([](Node& coord, std::int64_t blk,
                    std::shared_ptr<sim::WaitGroup> wg) -> sim::Task<void> {
        co_await coord.data_disk().read(blk, db::kPageBytes);
        wg->done();
      }(coord, rng.uniform_int(0, 1 << 17), wg));
    }
    co_await wg->wait();
  }
  report.redo_seconds = engine.now() - redo_start;
  report.total_seconds = engine.now() - start;
  co_return report;
}

}  // namespace dclue::core
