#pragma once

/// \file ycsb.hpp
/// YCSB-style keyed workload family beside TPC-C: the A-F operation mixes
/// (read / update / insert / read-modify-write / scan) over the dense
/// db::TpccDatabase::ycsb table. This header holds the spec, the ops and
/// their generator; the node's workload::TxnExecutor (tpcc_txn.hpp) runs
/// each op as a transaction, through the same begin, commit and
/// buffer-cache / cache-fusion / MVCC / WAL stack as TPC-C. Reads, updates,
/// inserts and read-modify-writes are TPC-C's own row templates applied to
/// the keyed table; only the range scan, which batches its CPU per page, is
/// a keyed body of its own (ycsb.cpp).
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
/// contiguous ranges (cluster::PartitionMap::owner_of_ycsb_key: owner =
/// key*nodes/records); a page that straddles two ranges is homed with the
/// higher one (PartitionMap::home_of_page). Runtime inserts mint keys
/// in the disjoint region above db::kYcsbInsertBase, clustered per minting
/// node. Scans cover the dense region only — an arithmetic walk over
/// [key, key+len) is exactly the leaf walk a B+-tree range scan performs on
/// a dense clustered keyspace, and it stays race-free while other shards
/// split insert-region leaves (the B-tree scan machinery itself is
/// unit-tested in tests/db/btree_scan_test.cpp).

#include <array>
#include <cstdint>
#include <string_view>

#include "core/config.hpp"
#include "sim/key_chooser.hpp"

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

}  // namespace dclue::workload
