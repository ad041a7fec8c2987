#pragma once

/// \file ycsb.hpp
/// YCSB-style keyed workload family beside TPC-C: the A-F operation mixes
/// (read / update / insert / read-modify-write / scan) over the dense
/// db::TpccDatabase::ycsb table, executed through the same buffer-cache /
/// cache-fusion / MVCC / WAL stack as the TPC-C transactions.
///
/// Spec-string grammar (ClusterConfig):
///   workload_spec = "tpcc" | "ycsb-a" .. "ycsb-f"
///   ycsb_dist     = "" (mix default) | "uniform" | "zipfian" | "latest"
///   ycsb_arrival  = "poisson:RATE" | "fixed:RATE"   (ops / scaled s / node)
/// Mix defaults follow the YCSB core workloads: A 50r/50u, B 95r/5u,
/// C 100r, D 95r/5i (latest), E 95scan/5i, F 50r/50rmw; all zipfian(theta)
/// except D.
///
/// Keyspace contract: the loaded keyspace is dense [0, records), owned in
/// contiguous ranges (owner = key*nodes/records). Runtime inserts mint keys
/// in the disjoint region above db::kYcsbInsertBase, clustered per minting
/// node. Scans cover the dense region only — an arithmetic walk over
/// [key, key+len) is exactly the leaf walk a B+-tree range scan performs on
/// a dense clustered keyspace, and it stays race-free while other shards
/// split insert-region leaves (the B-tree scan machinery itself is
/// unit-tested in tests/db/btree_scan_test.cpp).

#include <array>
#include <cstdint>
#include <string_view>

#include "sim/key_chooser.hpp"
#include "sim/obs/stats.hpp"
#include "workload/tpcc_txn.hpp"

namespace dclue::workload {

enum class YcsbOpType : std::uint8_t {
  kRead = 0,
  kUpdate,
  kInsert,
  kScan,
  kRmw,
};
inline constexpr int kNumYcsbOpTypes = 5;
inline constexpr const char* kYcsbOpNames[kNumYcsbOpTypes] = {
    "read", "update", "insert", "scan", "rmw"};

/// One of the YCSB core workload mixes.
struct YcsbMix {
  char letter = 'c';
  std::array<double, kNumYcsbOpTypes> weights{};  ///< by YcsbOpType
  sim::KeyDist default_dist = sim::KeyDist::kZipfian;
};

[[nodiscard]] bool is_ycsb(std::string_view workload_spec);
/// "ycsb-a" .. "ycsb-f"; throws std::invalid_argument on anything else.
[[nodiscard]] YcsbMix parse_ycsb_mix(std::string_view workload_spec);

/// Fully resolved workload parameters (mix + distribution + dynamic shift).
struct YcsbSpec {
  YcsbMix mix;
  sim::KeyDist dist = sim::KeyDist::kZipfian;
  double theta = 0.99;
  std::int64_t records = 0;
  int scan_len = 50;  ///< max rows per scan (YCSB-E); uniform in [1, max]
  /// Dynamic shift: every shift_interval of simulated time the zipfian
  /// hotspot rotates by shift_stride keys (records/nodes — one node's
  /// partition), so the hot range marches across the cluster.
  int shift = 0;
  std::int64_t shift_stride = 0;
  sim::Duration shift_interval = 0.0;
};

/// Resolve (and validate) a spec from the cluster configuration; throws
/// std::invalid_argument on malformed knobs.
[[nodiscard]] YcsbSpec make_ycsb_spec(const core::ClusterConfig& cfg);

struct YcsbOp {
  YcsbOpType type = YcsbOpType::kRead;
  std::int64_t key = 0;  ///< dense-region key (executor re-mints insert keys)
  int scan_len = 1;      ///< rows, kScan only
};

/// Draws operations for one client host. Deterministic: op type, key, and
/// scan length come from the two owned Rng streams in a fixed order, and the
/// dynamic-shift offset is a pure function of the issuing engine's clock.
class YcsbOpGenerator {
 public:
  YcsbOpGenerator(const YcsbSpec& spec, sim::Rng op_rng, sim::Rng key_rng)
      : spec_(spec),
        chooser_(spec.dist, spec.records, spec.theta, key_rng),
        rng_(op_rng) {}

  YcsbOp next(sim::Time now);

  [[nodiscard]] std::int64_t shift_offset(sim::Time now) const;
  [[nodiscard]] const YcsbSpec& spec() const { return spec_; }

 private:
  YcsbSpec spec_;
  sim::KeyChooser chooser_;
  sim::Rng rng_;
};

/// Executes keyed ops on one node through the same two-phase discipline as
/// TpccExecutor: phase-1 latched page accesses while data is brought in,
/// global lock conversion at commit, MVCC version creation, WAL flush. One
/// instance per node; invoked by the request-handling threads. The per-op
/// state is fixed-size (single lock, single write) so the keyed hot path
/// allocates nothing.
class YcsbExecutor {
 public:
  YcsbExecutor(NodeEnv env, YcsbSpec spec);

  /// Run one op to commit or abort. Returns the number of rows touched,
  /// or -1 on abort (reply sizing needs the row count; a member would race
  /// across the node's interleaved server threads).
  sim::Task<int> execute(const YcsbOp& op, cpu::ThreadId tid);

  /// Committed ops by type, for per-node registry binding (ycsb runs only).
  [[nodiscard]] obs::Counter& op_counter(int type) { return ops_by_type_[static_cast<std::size_t>(type)]; }

  /// Contiguous-range owner of a key (insert-region keys carry their node).
  [[nodiscard]] int key_home(std::int64_t key) const;

 private:
  struct OpCtx {
    std::uint64_t token = 0;
    db::Timestamp snapshot = 0;
    cpu::ThreadId tid = 0;
    bool has_write = false;    ///< update path: one lock + one version
    db::LockName lock_name = 0;
    int lock_home = 0;
    db::PageId write_page = 0;
    int write_subpage = 0;
    db::Key write_key = 0;
    bool is_insert = false;
    db::Key insert_key = 0;
    sim::Bytes log_bytes = 0;
    int rows = 0;
    sim::Time started = 0.0;
    sim::Time phase1_done = 0.0;
    sim::Duration lock_time = 0.0;
    sim::Duration log_time = 0.0;
    sim::Duration apply_time = 0.0;
  };

  sim::Task<void> read_key(OpCtx& ctx, std::int64_t key);
  sim::Task<void> write_key(OpCtx& ctx, std::int64_t key);
  sim::Task<void> insert_op(OpCtx& ctx);
  sim::Task<void> scan_keys(OpCtx& ctx, std::int64_t lo, int len);
  sim::Task<bool> commit(OpCtx& ctx);

  NodeEnv env_;
  YcsbSpec spec_;
  db::Table<db::YcsbRow>* table_;
  std::uint64_t next_token_ = 1;
  /// Node-local insert sequence: minted server-side so the key stream is a
  /// pure function of this node's request order (race-free under sharding).
  std::uint64_t insert_seq_ = 0;
  std::array<obs::Counter, kNumYcsbOpTypes> ops_by_type_;
};

}  // namespace dclue::workload
