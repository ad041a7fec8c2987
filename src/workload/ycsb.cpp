#include "workload/ycsb.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <string>

#include "sim/obs/trace.hpp"

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
// Execution
// ---------------------------------------------------------------------------

YcsbExecutor::YcsbExecutor(NodeEnv env, YcsbSpec spec)
    : env_(std::move(env)), spec_(spec), table_(env_.db->ycsb.get()) {
  if (table_ == nullptr) {
    throw std::logic_error("YcsbExecutor requires TpccDatabase::build_ycsb");
  }
}

int YcsbExecutor::key_home(std::int64_t key) const {
  if (env_.num_nodes == 1) return 0;
  if (static_cast<db::Key>(key) >= db::kYcsbInsertBase) {
    return std::clamp(db::ycsb_insert_node(static_cast<db::Key>(key)), 0,
                      env_.num_nodes - 1);
  }
  const std::int64_t k = std::clamp<std::int64_t>(key, 0, spec_.records - 1);
  return static_cast<int>(k * env_.num_nodes / spec_.records);
}

sim::Task<void> YcsbExecutor::read_key(OpCtx& ctx, std::int64_t key) {
  // Dense clustered keyspace: page and subpage derive from the key alone, so
  // the read path needs no index content probe (and therefore no cross-shard
  // structural read) — only the costed index-leaf + data-page accesses and
  // the MVCC visibility walk.
  const db::Key k = db::key_ycsb(key);
  const int home = key_home(key);
  co_await env_.proc->compute(env_.pl.index_probe, cpu::JobClass::kApplication,
                              ctx.tid);
  co_await env_.fusion->access_page(table_->index_page_of(k), false, home);
  const db::PageId page = table_->data_page_of_key(k);
  co_await env_.fusion->access_page(page, false, home);
  const int hops =
      env_.versions->chain_hops(page, table_->subpage_of_key(k), ctx.snapshot);
  co_await env_.proc->compute(env_.pl.row_read + hops * env_.pl.version_hop,
                              cpu::JobClass::kApplication, ctx.tid);
  ++ctx.rows;
}

sim::Task<void> YcsbExecutor::write_key(OpCtx& ctx, std::int64_t key) {
  const db::Key k = db::key_ycsb(key);
  const int home = key_home(key);
  co_await env_.proc->compute(env_.pl.index_probe, cpu::JobClass::kApplication,
                              ctx.tid);
  co_await env_.fusion->access_page(table_->index_page_of(k), false, home);
  const db::PageId page = table_->data_page_of_key(k);
  co_await env_.fusion->access_page(page, true, home);
  const int subpage = table_->subpage_of_key(k);
  co_await env_.proc->compute(env_.pl.row_update, cpu::JobClass::kApplication,
                              ctx.tid);
  // Phase 1: intention latch only; the single global lock is converted at
  // commit (same discipline as TpccExecutor, degenerate one-lock case).
  ctx.has_write = true;
  ctx.lock_name = db::lock_name(page, subpage);
  ctx.lock_home = env_.fusion->dir_home(page);
  ctx.write_page = page;
  ctx.write_subpage = subpage;
  ctx.write_key = k;
  ctx.log_bytes += table_->spec().row_bytes + 64;  // record header
  ++ctx.rows;
}

sim::Task<void> YcsbExecutor::insert_op(OpCtx& ctx) {
  // Mint the key server-side: node-clustered, so each node appends to its
  // own pages and the key stream is deterministic per node.
  const db::Key k = db::ycsb_insert_key(env_.node_id, ++insert_seq_);
  const db::PageId page = table_->data_page_of_key(k);
  const int home = env_.node_id;
  co_await env_.proc->compute(env_.pl.index_probe, cpu::JobClass::kApplication,
                              ctx.tid);
  // Leaf and data page may be freshly created by this insert.
  co_await env_.fusion->access_page(table_->index_page_of(k), false, home,
                                    /*allocate=*/true);
  co_await env_.fusion->access_page(page, true, home, /*allocate=*/true);
  co_await env_.proc->compute(env_.pl.row_insert, cpu::JobClass::kApplication,
                              ctx.tid);
  // Append-page latch only (see TpccExecutor::insert_row): node-private key
  // region, so there is no cross-transaction ordering to protect.
  ctx.is_insert = true;
  ctx.insert_key = k;
  ctx.log_bytes += table_->spec().row_bytes + 64;
  ++ctx.rows;
}

sim::Task<void> YcsbExecutor::scan_keys(OpCtx& ctx, std::int64_t lo, int len) {
  // Range scan over the dense region [lo, lo+len): exactly one costed access
  // per distinct index leaf and data page, plus a per-row visibility walk —
  // the page sequence a B+-tree leaf-chain scan produces on a dense
  // clustered keyspace. Row-read CPU is charged once per page batch to keep
  // the event count per scan bounded.
  const std::int64_t hi = std::min(lo + len, spec_.records);
  co_await env_.proc->compute(env_.pl.index_probe, cpu::JobClass::kApplication,
                              ctx.tid);
  db::PageId cur_index = 0;
  db::PageId cur_data = 0;
  double batch_path = 0.0;
  for (std::int64_t key = lo; key < hi; ++key) {
    const db::Key k = db::key_ycsb(key);
    const int home = key_home(key);
    const db::PageId ip = table_->index_page_of(k);
    if (ip != cur_index) {
      cur_index = ip;
      co_await env_.fusion->access_page(ip, false, home);
    }
    const db::PageId dp = table_->data_page_of_key(k);
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
        env_.versions->chain_hops(dp, table_->subpage_of_key(k), ctx.snapshot);
    batch_path += env_.pl.row_read + hops * env_.pl.version_hop;
    ++ctx.rows;
  }
  if (batch_path > 0.0) {
    co_await env_.proc->compute(batch_path, cpu::JobClass::kApplication,
                                ctx.tid);
  }
}

sim::Task<int> YcsbExecutor::execute(const YcsbOp& op, cpu::ThreadId tid) {
  if (env_.alive && !*env_.alive) {
    env_.stats->txns_aborted.record();
    co_return -1;
  }
  OpCtx ctx;
  ctx.token = next_token_ * static_cast<std::uint64_t>(env_.num_nodes) +
              static_cast<std::uint64_t>(env_.node_id);
  ++next_token_;
  ctx.snapshot = *env_.global_clock;
  ctx.tid = tid;

  const sim::Time t_begin = env_.engine->now();
  co_await env_.proc->compute(env_.pl.txn_begin, cpu::JobClass::kApplication,
                              tid);
  env_.stats->in_phase1.record_delta(1.0);
  switch (op.type) {
    case YcsbOpType::kRead:
      co_await read_key(ctx, op.key);
      break;
    case YcsbOpType::kUpdate:
      co_await write_key(ctx, op.key);
      break;
    case YcsbOpType::kInsert:
      co_await insert_op(ctx);
      break;
    case YcsbOpType::kScan:
      co_await scan_keys(ctx, op.key, op.scan_len);
      break;
    case YcsbOpType::kRmw:
      co_await read_key(ctx, op.key);
      co_await write_key(ctx, op.key);
      break;
  }
  env_.stats->in_phase1.record_delta(-1.0);
  ctx.phase1_done = env_.engine->now();
  ctx.started = t_begin;

  const bool committed = co_await commit(ctx);
  if (committed) {
    env_.stats->txns_committed.record();
    ops_by_type_[static_cast<std::size_t>(op.type)].record();
    const sim::Duration total = env_.engine->now() - ctx.started;
    env_.stats->t_total.record(total);
    env_.stats->t_phase1.record(ctx.phase1_done - ctx.started);
    env_.stats->t_locks.record(ctx.lock_time);
    env_.stats->t_log.record(ctx.log_time);
    env_.stats->t_apply.record(ctx.apply_time);
    DCLUE_TRACE_SPAN("txn", kYcsbOpNames[static_cast<std::size_t>(op.type)],
                     ctx.started, env_.engine->now(),
                     static_cast<std::uint32_t>(env_.node_id));
  } else {
    env_.stats->txns_aborted.record();
    DCLUE_TRACE_INSTANT("txn", "abort", env_.engine->now(),
                        static_cast<std::uint32_t>(env_.node_id));
  }
  co_return committed ? ctx.rows : -1;
}

sim::Task<bool> YcsbExecutor::commit(OpCtx& ctx) {
  constexpr int kMaxRetries = 8;
  if (ctx.has_write) {
    const sim::Time locks_begin = env_.engine->now();
    for (int attempt = 0;; ++attempt) {
      if (env_.alive && !*env_.alive) co_return false;
      env_.stats->lock_acquisitions.record();
      bool granted = co_await env_.fusion->lock_try(ctx.lock_name,
                                                    ctx.lock_home, ctx.token);
      if (!granted) {
        // Single lock and nothing held: safe to wait in place.
        env_.stats->lock_waits.record();
        const sim::Time t0 = env_.engine->now();
        env_.stats->in_lock_wait.record_delta(1.0);
        granted = co_await env_.fusion->lock_wait(ctx.lock_name, ctx.lock_home,
                                                  ctx.token);
        env_.stats->in_lock_wait.record_delta(-1.0);
        env_.stats->lock_wait_time.record(env_.engine->now() - t0);
        DCLUE_TRACE_SPAN("lock", "lock_wait", t0, env_.engine->now(),
                         static_cast<std::uint32_t>(env_.node_id));
      }
      if (granted) break;
      env_.stats->lock_failures.record();
      if (attempt >= kMaxRetries) co_return false;
      co_await sim::delay_for(*env_.engine,
                              env_.rng->exponential(env_.lock_retry_delay));
    }
    ctx.lock_time = env_.engine->now() - locks_begin;
  }

  if (env_.alive && !*env_.alive) {
    if (ctx.has_write) {
      co_await env_.fusion->lock_release(ctx.lock_name, ctx.lock_home,
                                         ctx.token);
    }
    co_return false;
  }

  const sim::Time apply_begin = env_.engine->now();
  const db::Timestamp ts = ++(*env_.global_clock);
  if (ctx.has_write) {
    env_.versions->create_version(ctx.write_page, ctx.write_subpage, ts,
                                  table_->spec().subpage_bytes);
    if (auto* row = table_->find(ctx.write_key)) ++row->writes;
  }
  if (ctx.is_insert) {
    table_->insert(ctx.insert_key, db::YcsbRow{});
  }
  if (ctx.log_bytes > 0) {
    env_.stats->dirty_bytes_accum += ctx.log_bytes;
    env_.log->append(std::max<sim::Bytes>(ctx.log_bytes, 512));
    env_.stats->in_log_flush.record_delta(1.0);
    const sim::Time log_begin = env_.engine->now();
    co_await env_.log->flush();
    ctx.log_time = env_.engine->now() - log_begin;
    env_.stats->in_log_flush.record_delta(-1.0);
  }
  co_await env_.proc->compute(env_.pl.txn_commit, cpu::JobClass::kApplication,
                              ctx.tid);
  if (ctx.has_write) {
    co_await env_.fusion->lock_release(ctx.lock_name, ctx.lock_home, ctx.token);
  }
  ctx.apply_time = env_.engine->now() - apply_begin - ctx.log_time;
  co_return true;
}

}  // namespace dclue::workload
