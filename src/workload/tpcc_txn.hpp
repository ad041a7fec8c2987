#pragma once

/// \file tpcc_txn.hpp
/// The node's transaction executor, and the TPC-C inputs it runs. Both
/// workload families go through one executor: the five TPC-C transactions
/// and the YCSB keyed ops (workload/ycsb.hpp) differ only in their phase-1
/// bodies. Every row access of either family goes through the same three
/// row templates (read_row / write_row / insert_row): a real B+-tree lookup
/// and buffer-cache / cache-fusion page accesses, latching the rows a
/// transaction will write; only the YCSB range scan has a keyed body of its
/// own. The executor asks no placement question: it names pages and
/// sub-pages, and cache fusion (cluster::FusionLayer) finds each one's
/// home. The families share the begin, the outcome record and
/// the commit: the paper's two-phase locking (phase 2 converts latches to
/// global locks in order, waiting only on the first and release-retrying on
/// later conflicts), MVCC version creation, row mutation and WAL flush.

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "cluster/fusion.hpp"
#include "core/config.hpp"
#include "core/node_stats.hpp"
#include "cpu/processor.hpp"
#include "db/log_manager.hpp"
#include "db/mvcc.hpp"
#include "db/tpcc_schema.hpp"
#include "sim/obs/stats.hpp"
#include "sim/rng.hpp"
#include "workload/ycsb.hpp"

namespace dclue::workload {

/// In core::kTxnTypeNames order.
enum class TxnType : std::uint8_t {
  kNewOrder = 0,
  kPayment,
  kOrderStatus,
  kDelivery,
  kStockLevel,
};
inline constexpr int kNumTxnTypes = core::kTxnTypeSlots;
/// Nominal mix: 43/43/5/5/4 (§2.2).
inline constexpr double kTxnMix[kNumTxnTypes] = {0.43, 0.43, 0.05, 0.05, 0.04};

struct OrderLineInput {
  std::int64_t item = 0;
  std::int64_t supply_w = 0;
  int quantity = 0;
};

struct TxnInput {
  TxnType type = TxnType::kNewOrder;
  std::int64_t w = 1;  ///< home warehouse of the issuing terminal
  std::int64_t d = 1;
  std::int64_t c = 1;
  std::vector<OrderLineInput> lines;  ///< new-order
  double amount = 0.0;                ///< payment
  std::int64_t c_w = 1;               ///< payment: customer's warehouse (15% remote)
  std::int64_t c_d = 1;
  int threshold = 15;                 ///< stock-level
  bool rollback = false;              ///< 1% of new-orders abort by spec
};

/// Generates spec-conformant transaction inputs for a terminal bound to one
/// warehouse.
class TpccInputGenerator {
 public:
  TpccInputGenerator(const db::TpccScale& scale, sim::Rng rng)
      : scale_(scale), rng_(std::move(rng)) {}

  TxnInput generate(TxnType type, std::int64_t home_w);
  /// A business transaction: new-order first, then the rest of the mix in
  /// proportion (§2.3: "a sequence of TPC-C transactions starting with the
  /// new-order in the proportions specified").
  std::vector<TxnInput> business_transaction(std::int64_t home_w);

 private:
  db::TpccScale scale_;
  sim::Rng rng_;
};

/// Everything a transaction needs from its executing node.
struct NodeEnv {
  sim::Engine* engine = nullptr;
  int node_id = 0;
  int num_nodes = 1;
  db::TpccDatabase* db = nullptr;
  cluster::FusionLayer* fusion = nullptr;
  db::VersionManager* versions = nullptr;
  db::LogManager* log = nullptr;
  cpu::Processor* proc = nullptr;
  core::NodeStats* stats = nullptr;
  core::PathLengths pl;
  std::uint64_t* global_clock = nullptr;  ///< cluster logical timestamp
  sim::Rng* rng = nullptr;  ///< node-local stream (retry backoff)
  /// Mean delay before retrying phase 2 after a lock failure (scaled).
  sim::Duration lock_retry_delay = sim::milliseconds(0.5);
  /// Node liveness (null = always alive). A dead node's executor aborts at
  /// the next check and never applies writes, modeling crash-stop.
  const bool* alive = nullptr;
  /// Sharded run: use race-free variants of the few operations whose legacy
  /// form reads global mutable state in phase 1 (insert-page predictions,
  /// the history id counter) — see DESIGN.md §"Sharded engine internals".
  bool sharded = false;
};

/// Executes both workload families on one node: TPC-C transactions and
/// YCSB keyed ops share one begin, one commit and one outcome record; only
/// the phase-1 bodies differ. One instance per node; invoked by the
/// request-handling threads.
class TxnExecutor {
 public:
  explicit TxnExecutor(NodeEnv env) : env_(std::move(env)) {}

  /// Run one transaction to commit or abort; returns true on commit.
  sim::Task<bool> execute(const TxnInput& input, cpu::ThreadId tid);
  /// Run one keyed op to commit or abort. Returns the number of rows
  /// touched, or -1 on abort (reply sizing needs the row count; a member
  /// would race across the node's interleaved server threads).
  sim::Task<int> execute(const YcsbOp& op, cpu::ThreadId tid);

  /// Committed keyed ops by type, for per-node registry binding (ycsb runs
  /// only).
  [[nodiscard]] obs::Counter& op_counter(int type) {
    return ops_by_type_[static_cast<std::size_t>(type)];
  }

 private:
  struct PendingWrite {
    db::PageId page;
    int subpage;
    sim::Bytes bytes;
  };
  struct TxnCtx {
    std::uint64_t token = 0;
    db::Timestamp snapshot = 0;
    cpu::ThreadId tid = 0;
    /// Written sub-pages in access order (the phase-1 intention latches):
    /// commit locks each sub-page once and versions every entry.
    std::vector<PendingWrite> writes;
    std::vector<std::function<void()>> applies;  ///< run after locks granted
    sim::Bytes log_bytes = 0;
    // Latency breakdown bookkeeping.
    sim::Time started = 0.0;
    sim::Time phase1_done = 0.0;
    sim::Duration lock_time = 0.0;
    sim::Duration log_time = 0.0;
    sim::Duration apply_time = 0.0;
  };

  /// Start a transaction: false (and one abort counted) if the node is
  /// dead; otherwise mint its token and snapshot, charge txn_begin and
  /// enter phase 1.
  sim::Task<bool> begin(TxnCtx& ctx, cpu::ThreadId tid);
  void end_phase1(TxnCtx& ctx);
  /// Record the outcome: the commit or abort count, the latency breakdown
  /// of a commit, and its trace span (\p name) or abort instant.
  void finish(const TxnCtx& ctx, bool committed, const char* name);

  sim::Task<bool> run_txn(const TxnInput& input, TxnCtx& ctx);
  sim::Task<void> new_order(const TxnInput& in, TxnCtx& ctx);
  sim::Task<void> payment(const TxnInput& in, TxnCtx& ctx);
  sim::Task<void> order_status(const TxnInput& in, TxnCtx& ctx);
  sim::Task<void> delivery(const TxnInput& in, TxnCtx& ctx);
  sim::Task<void> stock_level(const TxnInput& in, TxnCtx& ctx);

  /// The keyed range scan (phase 1, ycsb.cpp); returns the rows it read.
  sim::Task<int> scan_keys(TxnCtx& ctx, std::int64_t lo, int len);

  /// Phase 2 + apply + log + release. Returns false if the transaction had
  /// to abort (node dead or lock retry budget exhausted).
  sim::Task<bool> commit(TxnCtx& ctx);
  /// Release the first \p count of \p locks (commit's lock list).
  sim::Task<void> release_all(const std::vector<PendingWrite>& locks,
                              std::size_t count, std::uint64_t token);

  // --- row access primitives (phase 1), for both families ----------------
  template <typename Row>
  sim::Task<Row*> read_row(TxnCtx& ctx, db::Table<Row>& table, db::Key key);
  template <typename Row>
  sim::Task<void> write_row(TxnCtx& ctx, db::Table<Row>& table, db::Key key,
                            std::function<void(Row&)> apply);
  template <typename Row>
  sim::Task<void> insert_row(TxnCtx& ctx, db::Table<Row>& table,
                             db::Key predicted_key, std::function<void()> apply);

  NodeEnv env_;
  std::uint64_t next_token_ = 1;
  /// Node-local insert sequence: minted server-side so the key stream is a
  /// pure function of this node's request order (race-free under sharding).
  std::uint64_t insert_seq_ = 0;
  std::array<obs::Counter, kNumYcsbOpTypes> ops_by_type_;
};

}  // namespace dclue::workload
