#include "workload/tpcc_txn.hpp"

#include <algorithm>
#include <memory>
#include <set>

#include "sim/obs/trace.hpp"

namespace dclue::workload {

using db::key_i;
using db::key_w;
using db::key_wd;
using db::key_wdc;
using db::key_wdo;
using db::key_wdool;
using db::key_wi;

// ---------------------------------------------------------------------------
// Input generation (TPC-C clause 2)
// ---------------------------------------------------------------------------

TxnInput TpccInputGenerator::generate(TxnType type, std::int64_t home_w) {
  TxnInput in;
  in.type = type;
  in.w = home_w;
  in.d = rng_.uniform_int(1, scale_.districts_per_warehouse);
  in.c = rng_.nurand(255, 1, scale_.customers_per_district);
  switch (type) {
    case TxnType::kNewOrder: {
      const int n_lines = static_cast<int>(rng_.uniform_int(5, 15));
      for (int i = 0; i < n_lines; ++i) {
        OrderLineInput line;
        line.item = rng_.nurand(std::min<std::int64_t>(8191, scale_.items - 1), 1,
                                scale_.items);
        // 1% of lines are supplied by a remote warehouse.
        line.supply_w = (scale_.warehouses > 1 && rng_.chance(0.01))
                            ? rng_.uniform_int(1, scale_.warehouses)
                            : home_w;
        line.quantity = static_cast<int>(rng_.uniform_int(1, 10));
        in.lines.push_back(line);
      }
      in.rollback = rng_.chance(0.01);
      break;
    }
    case TxnType::kPayment: {
      in.amount = rng_.uniform(1.0, 5000.0);
      // 15% of payments are for a customer of a remote warehouse.
      if (scale_.warehouses > 1 && rng_.chance(0.15)) {
        do {
          in.c_w = rng_.uniform_int(1, scale_.warehouses);
        } while (in.c_w == home_w && scale_.warehouses > 1);
        in.c_d = rng_.uniform_int(1, scale_.districts_per_warehouse);
      } else {
        in.c_w = home_w;
        in.c_d = in.d;
      }
      break;
    }
    case TxnType::kStockLevel:
      in.threshold = static_cast<int>(rng_.uniform_int(10, 20));
      break;
    default:
      break;
  }
  return in;
}

std::vector<TxnInput> TpccInputGenerator::business_transaction(std::int64_t home_w) {
  // New-order first, then companions drawn so that the long-run mix matches
  // 43/43/5/5/4: one payment per new-order, and the minor transactions with
  // probability (share / new-order share).
  std::vector<TxnInput> seq;
  seq.push_back(generate(TxnType::kNewOrder, home_w));
  seq.push_back(generate(TxnType::kPayment, home_w));
  if (rng_.chance(kTxnMix[2] / kTxnMix[0])) {
    seq.push_back(generate(TxnType::kOrderStatus, home_w));
  }
  if (rng_.chance(kTxnMix[3] / kTxnMix[0])) {
    seq.push_back(generate(TxnType::kDelivery, home_w));
  }
  if (rng_.chance(kTxnMix[4] / kTxnMix[0])) {
    seq.push_back(generate(TxnType::kStockLevel, home_w));
  }
  return seq;
}

// ---------------------------------------------------------------------------
// Row access primitives
// ---------------------------------------------------------------------------

template <typename Row>
sim::Task<Row*> TxnExecutor::read_row(TxnCtx& ctx, db::Table<Row>& table,
                                      db::Key key) {
  const db::PageId index_page = table.index_page_of(key);
  co_await env_.proc->compute(env_.pl.index_probe, cpu::JobClass::kApplication,
                              ctx.tid);
  co_await env_.fusion->access_page(index_page, false);
  auto id = table.find_id(key);
  if (!id) co_return nullptr;
  const db::PageId page = table.page_for(key, *id);
  co_await env_.fusion->access_page(page, false);
  const int hops =
      env_.versions->chain_hops(page, table.subpage_for(key, *id), ctx.snapshot);
  co_await env_.proc->compute(
      env_.pl.row_read + hops * env_.pl.version_hop, cpu::JobClass::kApplication,
      ctx.tid);
  co_return &table.row(*id);
}

template <typename Row>
sim::Task<void> TxnExecutor::write_row(TxnCtx& ctx, db::Table<Row>& table,
                                       db::Key key,
                                       std::function<void(Row&)> apply) {
  const db::PageId index_page = table.index_page_of(key);
  co_await env_.proc->compute(env_.pl.index_probe, cpu::JobClass::kApplication,
                              ctx.tid);
  co_await env_.fusion->access_page(index_page, false);
  auto id = table.find_id(key);
  if (!id) co_return;  // row vanished (e.g. concurrent delivery)
  const db::PageId page = table.page_for(key, *id);
  co_await env_.fusion->access_page(page, true);
  const int subpage = table.subpage_for(key, *id);
  co_await env_.proc->compute(env_.pl.row_update, cpu::JobClass::kApplication,
                              ctx.tid);
  // Phase 1: intention latch only; the global lock conversion happens at
  // commit, in sequence order.
  ctx.writes.push_back({page, subpage, table.spec().subpage_bytes});
  ctx.log_bytes += table.spec().row_bytes + 64;  // record header
  ctx.applies.push_back([&table, id, apply = std::move(apply)] {
    apply(table.row(*id));
  });
}

template <typename Row>
sim::Task<void> TxnExecutor::insert_row(TxnCtx& ctx, db::Table<Row>& table,
                                        db::Key predicted_key,
                                        std::function<void()> apply) {
  const db::PageId page = table.spec().clustered
                              ? table.data_page_of_key(predicted_key)
                              : table.append_page();
  co_await env_.proc->compute(env_.pl.index_probe, cpu::JobClass::kApplication,
                              ctx.tid);
  // Both the index leaf and the data page may be freshly created by this
  // insert (leaf split / extent allocation): nothing to read from disk.
  co_await env_.fusion->access_page(table.index_page_of(predicted_key), false,
                                    /*allocate=*/true);
  co_await env_.fusion->access_page(page, true, /*allocate=*/true);
  co_await env_.proc->compute(env_.pl.row_insert, cpu::JobClass::kApplication,
                              ctx.tid);
  // Inserts latch the append page only for the duration of the operation
  // (heap/leaf insertion), not until commit — cross-transaction ordering of
  // new rows is already serialized by the district row lock (YCSB inserts
  // go to a node-private key region). A commit-length lock here would
  // falsely serialize every new-order in the cluster.
  ctx.log_bytes += table.spec().row_bytes + 64;
  ctx.applies.push_back(std::move(apply));
}

// ---------------------------------------------------------------------------
// Transaction bodies (phase 1)
// ---------------------------------------------------------------------------

sim::Task<void> TxnExecutor::new_order(const TxnInput& in, TxnCtx& ctx) {
  auto& db = *env_.db;
  co_await read_row(ctx, db.warehouse, key_w(in.w));
  co_await read_row(ctx, db.customer, key_wdc(in.w, in.d, in.c));
  // District: allocate the order id under the write lock at apply time.
  // (All lambdas below are named locals: GCC 12 double-destroys non-trivial
  // temporaries appearing inside co_await call expressions.)
  auto o_id = std::make_shared<std::int64_t>(0);
  std::function<void(db::DistrictRow&)> bump_order_id =
      [o_id](db::DistrictRow& r) { *o_id = r.next_o_id++; };
  co_await write_row<db::DistrictRow>(ctx, db.district, key_wd(in.w, in.d),
                                      bump_order_id);
  for (const auto& line : in.lines) {
    co_await read_row(ctx, db.item, key_i(line.item));
    std::function<void(db::StockRow&)> take_stock =
        [qty = line.quantity](db::StockRow& s) {
          s.quantity = static_cast<std::int16_t>(s.quantity - qty);
          if (s.quantity < 10) s.quantity = static_cast<std::int16_t>(s.quantity + 91);
          s.ytd += qty;
          ++s.order_cnt;
        };
    co_await write_row<db::StockRow>(ctx, db.stock,
                                     key_wi(line.supply_w, line.item), take_stock);
  }
  // Order + new-order + order-lines are inserted once the order id is known.
  const std::int64_t o_pred = db.district.find(key_wd(in.w, in.d))->next_o_id;
  const TxnInput input_copy = in;
  std::function<void()> insert_order_rows = [&db, input_copy, o_id] {
        db::OrderRow row;
        row.c_id = static_cast<std::int32_t>(input_copy.c);
        row.ol_cnt = static_cast<std::int8_t>(input_copy.lines.size());
        db.order.insert(key_wdo(input_copy.w, input_copy.d, *o_id), row);
        db.new_order.insert(key_wdo(input_copy.w, input_copy.d, *o_id),
                            db::NewOrderRow{});
        for (std::size_t i = 0; i < input_copy.lines.size(); ++i) {
          db::OrderLineRow line;
          line.i_id = static_cast<std::int32_t>(input_copy.lines[i].item);
          line.supply_w = static_cast<std::int32_t>(input_copy.lines[i].supply_w);
          line.quantity = static_cast<std::int8_t>(input_copy.lines[i].quantity);
          db.order_line.insert(
              key_wdool(input_copy.w, input_copy.d, *o_id,
                        static_cast<std::int64_t>(i + 1)),
              line);
        }
        // Index maintenance for order-status's customer->last-order lookup.
        if (auto* cust = db.customer.find(
                key_wdc(input_copy.w, input_copy.d, input_copy.c))) {
          cust->last_o_id = static_cast<std::int32_t>(*o_id);
        }
      };
  co_await insert_row<db::OrderRow>(ctx, db.order, key_wdo(in.w, in.d, o_pred),
                                    insert_order_rows);
  std::function<void()> noop = [] {};
  co_await insert_row<db::NewOrderRow>(ctx, db.new_order,
                                       key_wdo(in.w, in.d, o_pred), noop);
  // Order lines land on the district's order-line pages.
  for (std::size_t i = 0; i < in.lines.size(); ++i) {
    co_await insert_row<db::OrderLineRow>(
        ctx, db.order_line,
        key_wdool(in.w, in.d, o_pred, static_cast<std::int64_t>(i + 1)), noop);
  }
}

sim::Task<void> TxnExecutor::payment(const TxnInput& in, TxnCtx& ctx) {
  auto& db = *env_.db;
  const double amount = in.amount;
  std::function<void(db::WarehouseRow&)> pay_wh =
      [amount](db::WarehouseRow& r) { r.ytd += amount; };
  co_await write_row<db::WarehouseRow>(ctx, db.warehouse, key_w(in.w), pay_wh);
  std::function<void(db::DistrictRow&)> pay_d =
      [amount](db::DistrictRow& r) { r.ytd += amount; };
  co_await write_row<db::DistrictRow>(ctx, db.district, key_wd(in.w, in.d), pay_d);
  std::function<void(db::CustomerRow&)> pay_c = [amount](db::CustomerRow& r) {
    r.balance -= amount;
    r.ytd_payment += amount;
    ++r.payment_cnt;
  };
  co_await write_row<db::CustomerRow>(ctx, db.customer,
                                      key_wdc(in.c_w, in.c_d, in.c), pay_c);
  auto& dbref = db;
  const std::int64_t hw = in.w;
  std::function<void()> insert_history;
  db::Key history_pred;
  if (env_.sharded) {
    // Per-warehouse history sequence: the global counter would be read and
    // bumped from every shard (a data race, and nondeterministic). The
    // warehouse's own counter is touched only by owner(w)'s shard — the
    // phase-1 page prediction below is deterministic, and the apply runs
    // under the warehouse row lock this payment already holds.
    history_pred = db::key_history(in.w, dbref.history_seq_by_w[in.w] + 1);
    insert_history = [&dbref, hw] {
      dbref.history.insert(db::key_history(hw, ++dbref.history_seq_by_w[hw]),
                           db::HistoryRow{});
    };
  } else {
    history_pred = db::key_history(in.w, db.next_history_id);
    insert_history = [&dbref, hw] {
      dbref.history.insert(db::key_history(hw, dbref.next_history_id++),
                           db::HistoryRow{});
    };
  }
  co_await insert_row<db::HistoryRow>(ctx, db.history, history_pred,
                                      insert_history);
}

sim::Task<void> TxnExecutor::order_status(const TxnInput& in, TxnCtx& ctx) {
  auto& db = *env_.db;
  auto* cust = co_await read_row(ctx, db.customer, key_wdc(in.w, in.d, in.c));
  if (!cust || cust->last_o_id == 0) co_return;
  const std::int64_t o = cust->last_o_id;
  auto* order = co_await read_row(ctx, db.order, key_wdo(in.w, in.d, o));
  if (!order) co_return;
  for (int ol = 1; ol <= order->ol_cnt; ++ol) {
    co_await read_row(ctx, db.order_line, key_wdool(in.w, in.d, o, ol));
  }
}

sim::Task<void> TxnExecutor::delivery(const TxnInput& in, TxnCtx& ctx) {
  auto& db = *env_.db;
  for (std::int64_t d = 1; d <= env_.db->scale().districts_per_warehouse; ++d) {
    // Oldest undelivered order in this district (ordered index scan).
    co_await env_.proc->compute(env_.pl.index_probe, cpu::JobClass::kApplication,
                                ctx.tid);
    const db::Key no_lo = key_wdo(in.w, d, 0);
    const db::PageId no_index = db.new_order.index_page_of(no_lo);
    co_await env_.fusion->access_page(no_index, false);
    // Atomic range probe: a raw lower_bound iterator would walk B-tree
    // leaves while another shard's new-order insert splits them (the tree
    // structure is shared across warehouses even though rows partition).
    auto no_key_opt =
        db.new_order.first_key_in_range(no_lo, key_wdo(in.w, d + 1, 0));
    if (!no_key_opt) continue;
    const db::Key no_key = *no_key_opt;
    const std::int64_t o = static_cast<std::int64_t>(no_key & 0xffffffff);

    // Remove the new-order row (erase is applied at commit).
    std::function<void(db::NewOrderRow&)> no_noop = [](db::NewOrderRow&) {};
    co_await write_row<db::NewOrderRow>(ctx, db.new_order, no_key, no_noop);
    ctx.applies.push_back([&db, no_key] { db.new_order.erase(no_key); });

    auto* order = co_await read_row(ctx, db.order, key_wdo(in.w, d, o));
    if (!order) continue;
    const int ol_cnt = order->ol_cnt;
    const std::int64_t c_id = order->c_id;
    std::function<void(db::OrderRow&)> set_carrier = [](db::OrderRow& r) {
      r.carrier_id = 5;
    };
    co_await write_row<db::OrderRow>(ctx, db.order, key_wdo(in.w, d, o),
                                     set_carrier);
    std::function<void(db::OrderLineRow&)> mark_delivered =
        [](db::OrderLineRow& r) { r.delivered = true; };
    for (int ol = 1; ol <= ol_cnt; ++ol) {
      co_await write_row<db::OrderLineRow>(
          ctx, db.order_line, key_wdool(in.w, d, o, ol), mark_delivered);
    }
    std::function<void(db::CustomerRow&)> bump_delivery =
        [](db::CustomerRow& r) { ++r.delivery_cnt; };
    co_await write_row<db::CustomerRow>(ctx, db.customer,
                                        key_wdc(in.w, d, c_id), bump_delivery);
  }
}

sim::Task<void> TxnExecutor::stock_level(const TxnInput& in, TxnCtx& ctx) {
  auto& db = *env_.db;
  auto* dist = co_await read_row(ctx, db.district, key_wd(in.w, in.d));
  if (!dist) co_return;
  const std::int64_t next_o = dist->next_o_id;
  std::set<std::int64_t> items;
  for (std::int64_t o = std::max<std::int64_t>(1, next_o - 20); o < next_o; ++o) {
    auto* order = co_await read_row(ctx, db.order, key_wdo(in.w, in.d, o));
    if (!order) continue;
    for (int ol = 1; ol <= order->ol_cnt; ++ol) {
      auto* line =
          co_await read_row(ctx, db.order_line, key_wdool(in.w, in.d, o, ol));
      if (line) items.insert(line->i_id);
    }
  }
  int low = 0;
  for (std::int64_t item : items) {
    auto* stock = co_await read_row(ctx, db.stock, key_wi(in.w, item));
    // Sharded: a remote new-order line's lock-protected take_stock apply on
    // another shard may be mutating quantity concurrently. The comparison
    // result is discarded by the model (only the page accesses above are
    // costed), so skip the content read rather than making the field atomic.
    if (!env_.sharded && stock && stock->quantity < in.threshold) ++low;
  }
  (void)low;
}

// ---------------------------------------------------------------------------
// Execution driver: phase 1 -> phase 2 (ordered lock conversion) -> apply
// ---------------------------------------------------------------------------

sim::Task<bool> TxnExecutor::begin(TxnCtx& ctx, cpu::ThreadId tid) {
  if (env_.alive && !*env_.alive) {
    // Crash-stop: a dead node's server loop may still see queued requests;
    // they abort immediately without touching any shared state.
    env_.stats->txns_aborted.record();
    co_return false;
  }
  ctx.token = next_token_ * static_cast<std::uint64_t>(env_.num_nodes) +
              static_cast<std::uint64_t>(env_.node_id);
  ++next_token_;
  ctx.snapshot = *env_.global_clock;
  ctx.tid = tid;
  ctx.started = env_.engine->now();
  co_await env_.proc->compute(env_.pl.txn_begin, cpu::JobClass::kApplication, tid);
  env_.stats->in_phase1.record_delta(1.0);
  co_return true;
}

void TxnExecutor::end_phase1(TxnCtx& ctx) {
  env_.stats->in_phase1.record_delta(-1.0);
  ctx.phase1_done = env_.engine->now();
}

void TxnExecutor::finish(const TxnCtx& ctx, bool committed, const char* name) {
  if (!committed) {
    env_.stats->txns_aborted.record();
    DCLUE_TRACE_INSTANT("txn", "abort", env_.engine->now(),
                        static_cast<std::uint32_t>(env_.node_id));
    return;
  }
  env_.stats->txns_committed.record();
  // Latency budget of this transaction, by phase.
  env_.stats->t_total.record(env_.engine->now() - ctx.started);
  env_.stats->t_phase1.record(ctx.phase1_done - ctx.started);
  env_.stats->t_locks.record(ctx.lock_time);
  env_.stats->t_log.record(ctx.log_time);
  env_.stats->t_apply.record(ctx.apply_time);
  DCLUE_TRACE_SPAN("txn", name, ctx.started, env_.engine->now(),
                   static_cast<std::uint32_t>(env_.node_id));
}

sim::Task<bool> TxnExecutor::execute(const TxnInput& input, cpu::ThreadId tid) {
  TxnCtx ctx;
  const bool live = co_await begin(ctx, tid);
  if (!live) co_return false;
  co_await run_txn(input, ctx);
  end_phase1(ctx);

  if (input.rollback) {
    // Spec-mandated new-order rollback: nothing applied, latches dropped.
    co_await env_.proc->compute(env_.pl.txn_begin, cpu::JobClass::kApplication, tid);
    env_.stats->txns_aborted.record();
    co_return false;
  }
  const bool committed = co_await commit(ctx);
  const auto type = static_cast<std::size_t>(input.type);
  finish(ctx, committed, core::kTxnTypeNames[type]);
  if (committed) {
    if (input.type == TxnType::kNewOrder) env_.stats->new_orders_committed.record();
    env_.stats->t_by_type[type].record(env_.engine->now() - ctx.started);
  }
  co_return committed;
}

sim::Task<int> TxnExecutor::execute(const YcsbOp& op, cpu::ThreadId tid) {
  TxnCtx ctx;
  const bool live = co_await begin(ctx, tid);
  if (!live) co_return -1;
  auto& table = *env_.db->ycsb;
  const db::Key key = db::key_ycsb(op.key);
  std::function<void(db::YcsbRow&)> bump = [](db::YcsbRow& r) { ++r.writes; };
  int rows = 1;
  switch (op.type) {
    case YcsbOpType::kRead:
      co_await read_row(ctx, table, key);
      break;
    case YcsbOpType::kUpdate:
      co_await write_row(ctx, table, key, bump);
      break;
    case YcsbOpType::kInsert: {
      // Minted server-side in this node's own key region: each node appends
      // to its own pages, and the key stream is a pure function of this
      // node's request order.
      const db::Key minted = db::ycsb_insert_key(env_.node_id, ++insert_seq_);
      std::function<void()> insert = [&table, minted] {
        table.insert(minted, db::YcsbRow{});
      };
      co_await insert_row(ctx, table, minted, insert);
      break;
    }
    case YcsbOpType::kScan:
      rows = co_await scan_keys(ctx, op.key, op.scan_len);
      break;
    case YcsbOpType::kRmw:
      co_await read_row(ctx, table, key);
      co_await write_row(ctx, table, key, bump);
      rows = 2;
      break;
  }
  end_phase1(ctx);

  const bool committed = co_await commit(ctx);
  const auto type = static_cast<std::size_t>(op.type);
  finish(ctx, committed, kYcsbOpNames[type]);
  if (!committed) co_return -1;
  ops_by_type_[type].record();
  co_return rows;
}

sim::Task<bool> TxnExecutor::run_txn(const TxnInput& input, TxnCtx& ctx) {
  switch (input.type) {
    case TxnType::kNewOrder:
      co_await new_order(input, ctx);
      break;
    case TxnType::kPayment:
      co_await payment(input, ctx);
      break;
    case TxnType::kOrderStatus:
      co_await order_status(input, ctx);
      break;
    case TxnType::kDelivery:
      co_await delivery(input, ctx);
      break;
    case TxnType::kStockLevel:
      co_await stock_level(input, ctx);
      break;
  }
  co_return true;
}

sim::Task<void> TxnExecutor::release_all(const std::vector<PendingWrite>& locks,
                                         std::size_t count, std::uint64_t token) {
  for (std::size_t i = 0; i < count; ++i) {
    co_await env_.fusion->lock_release(locks[i].page, locks[i].subpage, token);
  }
}

sim::Task<bool> TxnExecutor::commit(TxnCtx& ctx) {
  // Convert latches to locks in sequence order, deduplicated (several row
  // ops in one sub-page need one lock).
  std::vector<PendingWrite> locks;
  locks.reserve(ctx.writes.size());
  for (const PendingWrite& w : ctx.writes) {
    if (std::none_of(locks.begin(), locks.end(), [&w](const PendingWrite& l) {
          return l.page == w.page && l.subpage == w.subpage;
        })) {
      locks.push_back(w);
    }
  }

  constexpr int kMaxRetries = 8;
  const sim::Time locks_begin = env_.engine->now();
  for (int attempt = 0;; ++attempt) {
    // The node may have crashed while this transaction was in phase 1 or
    // asleep between retries; abort before acquiring anything.
    if (env_.alive && !*env_.alive) co_return false;
    std::size_t acquired = 0;
    bool all_granted = true;
    for (std::size_t i = 0; i < locks.size(); ++i) {
      env_.stats->lock_acquisitions.record();
      const PendingWrite& ref = locks[i];
      bool granted = co_await env_.fusion->lock(ref.page, ref.subpage, ctx.token,
                                                /*wait=*/false);
      if (!granted && i == 0) {
        // Wait on the first lock in the sequence (holding nothing: safe).
        env_.stats->lock_waits.record();
        const sim::Time t0 = env_.engine->now();
        env_.stats->in_lock_wait.record_delta(1.0);
        granted = co_await env_.fusion->lock(ref.page, ref.subpage, ctx.token,
                                             /*wait=*/true);
        env_.stats->in_lock_wait.record_delta(-1.0);
        env_.stats->lock_wait_time.record(env_.engine->now() - t0);
        DCLUE_TRACE_SPAN("lock", "lock_wait", t0, env_.engine->now(),
                         static_cast<std::uint32_t>(env_.node_id));
      }
      if (granted) {
        ++acquired;
        continue;
      }
      // Later failure: release everything and retry after a delay.
      env_.stats->lock_failures.record();
      co_await release_all(locks, acquired, ctx.token);
      all_granted = false;
      break;
    }
    if (all_granted) break;
    if (attempt >= kMaxRetries) co_return false;
    co_await sim::delay_for(*env_.engine,
                            env_.rng->exponential(env_.lock_retry_delay));
  }

  ctx.lock_time = env_.engine->now() - locks_begin;

  // Final liveness check before any write becomes visible: a node that
  // crashed during lock acquisition releases promptly and applies nothing,
  // so committed state never contains a dead node's writes.
  if (env_.alive && !*env_.alive) {
    co_await release_all(locks, locks.size(), ctx.token);
    co_return false;
  }

  // Apply: versions, real row mutations, WAL.
  const sim::Time apply_begin = env_.engine->now();
  const db::Timestamp ts = ++(*env_.global_clock);
  for (const auto& w : ctx.writes) {
    env_.versions->create_version(w.page, w.subpage, ts, w.bytes);
  }
  for (auto& apply : ctx.applies) apply();
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
  co_await release_all(locks, locks.size(), ctx.token);
  // Apply covers versioning, row mutation, commit work and lock release;
  // the WAL flush is reported separately.
  ctx.apply_time = env_.engine->now() - apply_begin - ctx.log_time;
  co_return true;
}

}  // namespace dclue::workload
