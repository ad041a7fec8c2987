#pragma once

/// \file config.hpp
/// Cluster experiment configuration. Inputs are expressed in the paper's
/// units — original-system (unscaled) quantities where the paper's axes are
/// unscaled (latency in ms, FTP load in Mb/s), and the 100x-scaled router
/// forwarding rates the paper quotes. The builder converts everything into
/// the internally consistent scaled simulation domain.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include "cpu/params.hpp"
#include "net/qos.hpp"
#include "sim/units.hpp"

namespace dclue::core {

/// Per-operation CPU path lengths (instructions, unscaled). Calibrated so an
/// unclustered affinity-1.0 node averages ~1.5 M instructions per transaction
/// (the paper's figure, ~15% of it IO-related) and delivers ~50 K tpm-C.
struct PathLengths {
  double txn_begin = 30'000;
  double txn_commit = 60'000;
  double row_read = 18'000;
  double row_update = 30'000;
  double row_insert = 35'000;
  double index_probe = 8'000;
  double lock_op = 4'000;
  double version_hop = 2'000;     ///< per skipped newer version on reads
  double ipc_handler = 3'000;     ///< app-level handling per IPC message
  double buffer_miss = 12'000;    ///< buffer manager work per fetched page
  double local_io = 30'000;       ///< SCSI path per local disk IO
  double client_request = 80'000; ///< request parse/plan/respond per txn

  /// The paper's "low computation" variant divides computational path
  /// lengths by 4 (protocol stacks are not computation and stay fixed).
  [[nodiscard]] PathLengths with_computation_factor(double f) const {
    PathLengths p = *this;
    p.txn_begin *= f;
    p.txn_commit *= f;
    p.row_read *= f;
    p.row_update *= f;
    p.row_insert *= f;
    p.index_probe *= f;
    p.version_hop *= f;
    p.client_request *= f;
    return p;
  }
};

/// How the database is sized against target throughput (Fig 10).
enum class DbGrowth {
  kLinear,          ///< TPC-C rule: warehouses = tpm-C / 12.5
  kSqrtBeyond90k,   ///< linear to 90 K tpm-C, sqrt growth beyond
};

struct FtpConfig {
  double offered_load_mbps = 0.0;  ///< unscaled Mb/s, the paper's axis
  bool high_priority = false;      ///< promote FTP to AF21 (vs best effort)
};

/// Fabric-wide QoS arrangement (the §3.4/§4 design space; the paper studies
/// only best-effort and strict priority and leaves the rest as future work).
struct FabricQos {
  /// kWfq weighs best-effort 4 : 1 against AF21.
  net::QueueScheduler scheduler = net::QueueScheduler::kStrictPriority;
  bool wred = false;
  /// Police the AF21 class to this unscaled rate at every queue (leaky
  /// bucket); 0 = unpoliced.
  double af_police_mbps = 0.0;
};

struct ClusterConfig {
  int nodes = 4;
  double affinity = 1.0;
  double scale = 100.0;  ///< the paper's simulation slow-down factor

  bool hw_tcp = true;
  bool hw_iscsi = true;
  bool central_logging = false;
  double computation_factor = 1.0;  ///< 0.25 = the paper's "low computation"

  /// Router forwarding rate quoted at scale 100 as in the paper (Fig 8 uses
  /// 10000 vs 4000 packets/sec).
  double router_pps_at_scale100 = 10'000.0;

  /// Extra one-way inter-LATA latency in original-system terms (Figs 12-13).
  sim::Duration extra_inter_lata_latency = 0.0;

  FtpConfig ftp;

  /// Closed-loop load: terminals per server node, with a short think time so
  /// the cluster runs at its throughput capacity (what the paper plots).
  int terminals_per_node = 36;
  sim::Duration think_time = sim::milliseconds(5);  ///< unscaled
  /// Open-loop load (the latency/QoS experiments run with "no bound on the
  /// number of threads"): business-transaction arrival rate per node in
  /// scaled tx/s. 0 = closed-loop terminals.
  double open_loop_bt_rate_per_node = 0.0;

  /// Topology limits: 14-port routers leave room for 12 servers per LATA;
  /// the paper moves to 2 LATAs beyond 12 nodes.
  int max_servers_per_lata = 12;

  DbGrowth growth = DbGrowth::kLinear;
  /// Unclustered per-node capacity used for database sizing (tpm-C); set to
  /// the *realized* single-node throughput so warehouses track throughput as
  /// TPC-C mandates.
  double tpmc_per_node = 38'000.0;
  /// Testing override: force the warehouse count (0 = use the growth rule).
  std::int64_t warehouses_override = 0;
  std::int64_t customers_per_district = 300;
  std::int64_t items = 1'000;
  /// Ablation: override the district table lock (sub-page) granularity.
  sim::Bytes district_subpage_bytes = 0;
  /// The paper's routers "use simple tail-drop (instead of RED, WRED, etc.)"
  /// — with no early marking, TCP ECN negotiation never fires and congestion
  /// surfaces as drops + retransmission delays. Enable for a RED/ECN
  /// ablation.
  bool ecn_marking = false;
  FabricQos qos;

  /// Measurement windows in scaled simulation seconds.
  sim::Duration warmup = 8.0;
  sim::Duration measure = 30.0;

  /// Sharded parallel DES: split this run's event space across `shards`
  /// engines synchronized by conservative link-latency lookahead (one shard
  /// per worker thread; DESIGN.md §"Sharded engine internals"). 0 = legacy
  /// single-engine run, byte-identical to the pre-sharding simulator. Any
  /// value >= 1 enables domain-keyed event ordering, whose results are
  /// identical for every shard count and for serial vs parallel stepping —
  /// but differ from legacy keys, so sweeps must not mix the two modes.
  /// Requires affinity == 1.0 and a fault plan without node crash/restart
  /// (the determinism audit in DESIGN.md covers exactly that envelope).
  int shards = 0;
  /// How a sharded run steps its window protocol. true: one worker thread
  /// per shard. false: round-robin on the calling thread, with results
  /// bit-identical to true; the determinism tests use it as the baseline and
  /// perfbench's `tpcc-scale24` times it, because it does not wait on
  /// cross-thread wake-ups.
  bool shard_parallel = true;

  std::uint64_t seed = 1;

  /// Fault-injection plan spec ("flaps=4,drop=0.01,crashes=1", see
  /// sim/fault/fault.hpp). Empty = no injector built, zero overhead on the
  /// datapath, and the metrics registry is byte-identical to a clean run.
  std::string fault_spec;

  /// --- workload family ------------------------------------------------------
  /// "tpcc" (the paper's workload, closed-/open-loop terminals) or
  /// "ycsb-a".."ycsb-f" (keyed mixes over the dense YCSB table, served by
  /// open-loop clients; see workload/ycsb.hpp for the mix table and DESIGN.md
  /// "Workload layer" for the spec-string grammar).
  std::string workload_spec = "tpcc";
  /// YCSB keyed-table size; keys are dense in [0, ycsb_records).
  std::int64_t ycsb_records = 100'000;
  /// Zipfian skew parameter (YCSB standard 0.99).
  double ycsb_theta = 0.99;
  /// Override the mix's default key distribution: "uniform" | "zipfian" |
  /// "latest"; empty keeps the mix default (D = latest, others = zipfian).
  std::string ycsb_dist;
  /// Dynamic-shift mode: number of times the zipfian hotspot migrates during
  /// the run. Each shift rotates the keyspace by records/nodes, so the hot
  /// range marches across node partitions and the directory/affinity
  /// machinery must adapt. 0 = static hotspot.
  int ycsb_shift = 0;
  /// Open-loop arrival process per node: "poisson:RATE" or "fixed:RATE",
  /// RATE in keyed ops per scaled second.
  std::string ycsb_arrival = "poisson:400";

  /// Fabric transport for IPC and iSCSI sessions ("tcp" or "rdma", see
  /// net/transport.hpp). "tcp" is the paper's unified-Ethernet fabric and the
  /// golden baseline — it must stay bit-identical to the pre-abstraction
  /// simulator. "rdma" swaps in the kernel-bypass model (microsecond fixed
  /// latency, zero per-segment CPU cost, credit-based flow control) to ask
  /// which of the paper's conclusions survive a modern fabric. The DB client
  /// port always stays TCP: clients are outside the cluster fabric.
  std::string transport_spec = "tcp";

  [[nodiscard]] int latas() const {
    return (nodes + max_servers_per_lata - 1) / max_servers_per_lata;
  }
  [[nodiscard]] int servers_per_lata() const {
    return (nodes + latas() - 1) / latas();
  }
  /// Client hosts at the outer router, each running one fleet.
  [[nodiscard]] int client_hosts() const { return std::max(1, nodes / 4); }

  /// Warehouses for the configured cluster per the growth rule.
  [[nodiscard]] std::int64_t warehouses() const {
    if (warehouses_override > 0) return warehouses_override;
    const double target_tpmc = tpmc_per_node * nodes;  // unscaled sizing
    double wh;
    if (growth == DbGrowth::kLinear || target_tpmc <= 90'000.0) {
      wh = target_tpmc / 12.5;
    } else {
      const double base = 90'000.0 / 12.5;  // 7200 warehouses at the knee
      wh = base + (base / std::sqrt(90'000.0)) * std::sqrt(target_tpmc - 90'000.0);
    }
    // Scale the database down with the platform (throughput drops 100x).
    auto scaled = static_cast<std::int64_t>(wh / scale);
    return std::max<std::int64_t>(scaled, nodes);  // at least 1 per node
  }
};

}  // namespace dclue::core
