#include "workload/ycsb.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <string>

#include "workload/tpcc_txn.hpp"

namespace dclue::workload {

// ---------------------------------------------------------------------------
// Spec parsing
// ---------------------------------------------------------------------------

bool is_ycsb(std::string_view workload_spec) {
  return workload_spec.rfind("ycsb-", 0) == 0;
}

YcsbMix parse_ycsb_mix(std::string_view workload_spec) {
  if (!is_ycsb(workload_spec) || workload_spec.size() != 6) {
    throw std::invalid_argument("unknown workload spec: " +
                                std::string(workload_spec));
  }
  // Weights indexed by YcsbOpType: {read, update, insert, scan, rmw}.
  YcsbMix mix;
  mix.letter = workload_spec[5];
  switch (mix.letter) {
    case 'a':
      mix.weights = {0.50, 0.50, 0.0, 0.0, 0.0};
      break;
    case 'b':
      mix.weights = {0.95, 0.05, 0.0, 0.0, 0.0};
      break;
    case 'c':
      mix.weights = {1.00, 0.0, 0.0, 0.0, 0.0};
      break;
    case 'd':
      mix.weights = {0.95, 0.0, 0.05, 0.0, 0.0};
      mix.default_dist = sim::KeyDist::kLatest;
      break;
    case 'e':
      mix.weights = {0.0, 0.0, 0.05, 0.95, 0.0};
      break;
    case 'f':
      mix.weights = {0.50, 0.0, 0.0, 0.0, 0.50};
      break;
    default:
      throw std::invalid_argument("unknown workload spec: " +
                                  std::string(workload_spec));
  }
  return mix;
}

YcsbSpec make_ycsb_spec(const core::ClusterConfig& cfg) {
  YcsbSpec spec;
  spec.mix = parse_ycsb_mix(cfg.workload_spec);
  spec.dist = cfg.ycsb_dist.empty() ? spec.mix.default_dist
                                    : sim::parse_key_dist(cfg.ycsb_dist);
  spec.theta = cfg.ycsb_theta;
  spec.records = cfg.ycsb_records;
  if (spec.records <= 0 ||
      static_cast<db::Key>(spec.records) >= db::kYcsbInsertBase) {
    throw std::invalid_argument("ycsb_records out of range");
  }
  spec.shift = std::max(cfg.ycsb_shift, 0);
  spec.shift_stride =
      std::max<std::int64_t>(spec.records / std::max(cfg.nodes, 1), 1);
  spec.shift_interval = (cfg.warmup + cfg.measure) / (spec.shift + 1);
  return spec;
}

// ---------------------------------------------------------------------------
// Op generation
// ---------------------------------------------------------------------------

std::int64_t YcsbOpGenerator::shift_offset(sim::Time now) const {
  if (spec_.shift == 0 || spec_.dist != sim::KeyDist::kZipfian) return 0;
  const auto epoch = static_cast<std::int64_t>(now / spec_.shift_interval);
  return (epoch * spec_.shift_stride) % spec_.records;
}

YcsbOp YcsbOpGenerator::next(sim::Time now) {
  YcsbOp op;
  op.type = static_cast<YcsbOpType>(
      rng_.pick(std::span<const double>(spec_.mix.weights)));
  op.key = (chooser_.next() + shift_offset(now)) % spec_.records;
  if (op.type == YcsbOpType::kScan) {
    op.scan_len = static_cast<int>(rng_.uniform_int(1, spec_.scan_len));
  }
  return op;
}

// ---------------------------------------------------------------------------
// Execution: the keyed range scan of TxnExecutor (phase 1)
// ---------------------------------------------------------------------------

sim::Task<int> TxnExecutor::scan_keys(TxnCtx& ctx, std::int64_t lo, int len) {
  // Range scan over the dense region [lo, lo+len): exactly one costed access
  // per distinct index leaf and data page, plus a per-row visibility walk —
  // the page sequence a B+-tree leaf-chain scan produces on a dense
  // clustered keyspace. Row-read CPU is charged once per page batch to keep
  // the event count per scan bounded.
  const auto& table = *env_.db->ycsb;
  const std::int64_t hi = std::min(lo + len, env_.db->ycsb_records());
  co_await env_.proc->compute(env_.pl.index_probe, cpu::JobClass::kApplication,
                              ctx.tid);
  db::PageId cur_index = 0;
  db::PageId cur_data = 0;
  double batch_path = 0.0;
  int rows = 0;
  for (std::int64_t key = lo; key < hi; ++key) {
    const db::Key k = db::key_ycsb(key);
    const db::PageId ip = table.index_page_of(k);
    if (ip != cur_index) {
      cur_index = ip;
      co_await env_.fusion->access_page(ip, false);
    }
    const db::PageId dp = table.data_page_of_key(k);
    if (dp != cur_data) {
      if (batch_path > 0.0) {
        co_await env_.proc->compute(batch_path, cpu::JobClass::kApplication,
                                    ctx.tid);
        batch_path = 0.0;
      }
      cur_data = dp;
      co_await env_.fusion->access_page(dp, false);
    }
    const int hops =
        env_.versions->chain_hops(dp, table.subpage_of_key(k), ctx.snapshot);
    batch_path += env_.pl.row_read + hops * env_.pl.version_hop;
    ++rows;
  }
  if (batch_path > 0.0) {
    co_await env_.proc->compute(batch_path, cpu::JobClass::kApplication,
                                ctx.tid);
  }
  co_return rows;
}

}  // namespace dclue::workload
