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
// Execution: the keyed-op bodies of TxnExecutor (phase 1)
// ---------------------------------------------------------------------------

int TxnExecutor::key_home(std::int64_t key) const {
  if (env_.num_nodes == 1) return 0;
  if (static_cast<db::Key>(key) >= db::kYcsbInsertBase) {
    return std::clamp(db::ycsb_insert_node(static_cast<db::Key>(key)), 0,
                      env_.num_nodes - 1);
  }
  const std::int64_t records = env_.db->ycsb_records();
  const std::int64_t k = std::clamp<std::int64_t>(key, 0, records - 1);
  return static_cast<int>(k * env_.num_nodes / records);
}

sim::Task<void> TxnExecutor::read_key(TxnCtx& ctx, std::int64_t key) {
  // Dense clustered keyspace: page and subpage derive from the key alone, so
  // the read path needs no index content probe (and therefore no cross-shard
  // structural read) — only the costed index-leaf + data-page accesses and
  // the MVCC visibility walk.
  const auto& table = *env_.db->ycsb;
  const db::Key k = db::key_ycsb(key);
  const int home = key_home(key);
  co_await env_.proc->compute(env_.pl.index_probe, cpu::JobClass::kApplication,
                              ctx.tid);
  co_await env_.fusion->access_page(table.index_page_of(k), false, home);
  const db::PageId page = table.data_page_of_key(k);
  co_await env_.fusion->access_page(page, false, home);
  const int hops =
      env_.versions->chain_hops(page, table.subpage_of_key(k), ctx.snapshot);
  co_await env_.proc->compute(env_.pl.row_read + hops * env_.pl.version_hop,
                              cpu::JobClass::kApplication, ctx.tid);
  ++ctx.rows;
}

sim::Task<void> TxnExecutor::write_key(TxnCtx& ctx, std::int64_t key) {
  auto& table = *env_.db->ycsb;
  const db::Key k = db::key_ycsb(key);
  const int home = key_home(key);
  co_await env_.proc->compute(env_.pl.index_probe, cpu::JobClass::kApplication,
                              ctx.tid);
  co_await env_.fusion->access_page(table.index_page_of(k), false, home);
  const db::PageId page = table.data_page_of_key(k);
  co_await env_.fusion->access_page(page, true, home);
  const int subpage = table.subpage_of_key(k);
  co_await env_.proc->compute(env_.pl.row_update, cpu::JobClass::kApplication,
                              ctx.tid);
  // Phase 1: intention latch only; the global lock is converted at commit.
  ctx.locks.push_back({db::lock_name(page, subpage), env_.fusion->dir_home(page)});
  ctx.writes.push_back({page, subpage, table.spec().subpage_bytes});
  ctx.log_bytes += table.spec().row_bytes + 64;  // record header
  ctx.applies.push_back([&table, k] {
    if (auto* row = table.find(k)) ++row->writes;
  });
  ++ctx.rows;
}

sim::Task<void> TxnExecutor::insert_key(TxnCtx& ctx) {
  // Mint the key server-side: node-clustered, so each node appends to its
  // own pages and the key stream is deterministic per node.
  auto& table = *env_.db->ycsb;
  const db::Key k = db::ycsb_insert_key(env_.node_id, ++insert_seq_);
  const db::PageId page = table.data_page_of_key(k);
  const int home = env_.node_id;
  co_await env_.proc->compute(env_.pl.index_probe, cpu::JobClass::kApplication,
                              ctx.tid);
  // Leaf and data page may be freshly created by this insert.
  co_await env_.fusion->access_page(table.index_page_of(k), false, home,
                                    /*allocate=*/true);
  co_await env_.fusion->access_page(page, true, home, /*allocate=*/true);
  co_await env_.proc->compute(env_.pl.row_insert, cpu::JobClass::kApplication,
                              ctx.tid);
  // Append-page latch only (see insert_row): node-private key region, so
  // there is no cross-transaction ordering to protect.
  ctx.log_bytes += table.spec().row_bytes + 64;
  ctx.applies.push_back([&table, k] { table.insert(k, db::YcsbRow{}); });
  ++ctx.rows;
}

sim::Task<void> TxnExecutor::scan_keys(TxnCtx& ctx, std::int64_t lo, int len) {
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
  for (std::int64_t key = lo; key < hi; ++key) {
    const db::Key k = db::key_ycsb(key);
    const int home = key_home(key);
    const db::PageId ip = table.index_page_of(k);
    if (ip != cur_index) {
      cur_index = ip;
      co_await env_.fusion->access_page(ip, false, home);
    }
    const db::PageId dp = table.data_page_of_key(k);
    if (dp != cur_data) {
      if (batch_path > 0.0) {
        co_await env_.proc->compute(batch_path, cpu::JobClass::kApplication,
                                    ctx.tid);
        batch_path = 0.0;
      }
      cur_data = dp;
      co_await env_.fusion->access_page(dp, false, home);
    }
    const int hops =
        env_.versions->chain_hops(dp, table.subpage_of_key(k), ctx.snapshot);
    batch_path += env_.pl.row_read + hops * env_.pl.version_hop;
    ++ctx.rows;
  }
  if (batch_path > 0.0) {
    co_await env_.proc->compute(batch_path, cpu::JobClass::kApplication,
                                ctx.tid);
  }
}

sim::Task<int> TxnExecutor::execute(const YcsbOp& op, cpu::ThreadId tid) {
  TxnCtx ctx;
  const bool live = co_await begin(ctx, tid);
  if (!live) co_return -1;
  switch (op.type) {
    case YcsbOpType::kRead:
      co_await read_key(ctx, op.key);
      break;
    case YcsbOpType::kUpdate:
      co_await write_key(ctx, op.key);
      break;
    case YcsbOpType::kInsert:
      co_await insert_key(ctx);
      break;
    case YcsbOpType::kScan:
      co_await scan_keys(ctx, op.key, op.scan_len);
      break;
    case YcsbOpType::kRmw:
      co_await read_key(ctx, op.key);
      co_await write_key(ctx, op.key);
      break;
  }
  end_phase1(ctx);

  const bool committed = co_await commit(ctx);
  const auto type = static_cast<std::size_t>(op.type);
  finish(ctx, committed, kYcsbOpNames[type]);
  if (!committed) co_return -1;
  ops_by_type_[type].record();
  co_return ctx.rows;
}

}  // namespace dclue::workload
