#pragma once

/// \file cluster.hpp
/// Top-level experiment runner: builds the Fig-1 topology, the server nodes,
/// client terminal fleets and optional FTP cross traffic from a
/// ClusterConfig; wires up all IPC and iSCSI sessions; runs warmup and
/// measurement windows; and produces the RunReport the benches print.

#include <memory>
#include <vector>

#include "core/config.hpp"
#include "core/node_stats.hpp"
#include "core/report.hpp"
#include "core/node.hpp"
#include "db/tpcc_schema.hpp"
#include "net/topology.hpp"
#include "proto/ftp.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/shard.hpp"
#include "workload/client.hpp"

namespace dclue::core {

class FaultInjector;

class Cluster {
 public:
  explicit Cluster(ClusterConfig cfg);
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;
  ~Cluster();

  /// Populate, connect, warm up, measure; returns the collected report.
  RunReport run();

  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] db::TpccDatabase& database() { return *db_; }

  // --- sharded parallel DES --------------------------------------------------
  /// Non-null when cfg.shards > 0: the run's event space is partitioned into
  /// per-node/per-LATA domains grouped into shards (see config.hpp and
  /// DESIGN.md §"Sharded engine internals").
  [[nodiscard]] bool sharded() const { return shards_ != nullptr; }
  [[nodiscard]] sim::ShardSet* shard_set() { return shards_.get(); }
  /// Engine that owns \p domain (the legacy single engine when unsharded).
  [[nodiscard]] sim::Engine& domain_engine(int domain) {
    return shards_ != nullptr ? shards_->engine_of_domain(domain) : engine_;
  }
  /// Domain ids for the fault injector (0 in legacy mode).
  [[nodiscard]] int server_domain(int id) const {
    return shards_ != nullptr ? dom_.server[static_cast<std::size_t>(id)] : 0;
  }
  [[nodiscard]] int lata_domain_of_server(int id) const {
    return shards_ != nullptr
               ? dom_.lata[static_cast<std::size_t>(id / cfg_.servers_per_lata())]
               : 0;
  }
  [[nodiscard]] Node& node(int i) { return *nodes_.at(static_cast<std::size_t>(i)); }
  [[nodiscard]] workload::TerminalFleet& fleet(int i) {
    return *fleets_.at(static_cast<std::size_t>(i));
  }
  [[nodiscard]] int num_fleets() const { return static_cast<int>(fleets_.size()); }
  /// YCSB runs (cfg.workload_spec = "ycsb-X") build these instead of the
  /// TPC-C terminal fleets; exactly one of the two vectors is non-empty.
  [[nodiscard]] workload::YcsbFleet& ycsb_fleet(int i) {
    return *ycsb_fleets_.at(static_cast<std::size_t>(i));
  }
  [[nodiscard]] int num_ycsb_fleets() const {
    return static_cast<int>(ycsb_fleets_.size());
  }
  [[nodiscard]] const ClusterConfig& config() const { return cfg_; }
  [[nodiscard]] net::Topology& topology() { return *topo_; }

  /// The one registration / reset / snapshot surface for every collector in
  /// this cluster. Populated at construction; run() resets its window at the
  /// warmup boundary and collect() attaches its snapshot to the RunReport.
  [[nodiscard]] obs::MetricsRegistry& metrics() { return registry_; }
  [[nodiscard]] const obs::MetricsRegistry& metrics() const { return registry_; }

  // --- fault injection -------------------------------------------------------
  /// Crash-stop node \p id: liveness off, access links down, every in-flight
  /// IPC exchange failed cluster-wide, its locks re-mastered, its directory
  /// and cache state purged. Idempotent while the node is down.
  void crash_node(int id);
  /// Bring node \p id back: links up, run_recovery() on a surviving
  /// coordinator, liveness restored only once redo completes.
  void restart_node(int id);
  [[nodiscard]] bool node_alive(int id) { return node(id).alive(); }
  /// Null unless the config carried a non-empty fault_spec.
  [[nodiscard]] FaultInjector* fault_injector() { return injector_.get(); }
  [[nodiscard]] std::uint64_t crashes() const { return crashes_; }
  [[nodiscard]] std::uint64_t restarts() const { return restarts_; }
  [[nodiscard]] std::uint64_t recoveries() const { return recoveries_; }
  [[nodiscard]] double recovery_seconds() const { return recovery_seconds_; }
  [[nodiscard]] std::uint64_t locks_purged() const { return locks_purged_; }
  [[nodiscard]] std::uint64_t directory_purged() const { return dir_purged_; }
  [[nodiscard]] std::uint64_t cache_invalidated() const {
    return cache_invalidated_;
  }

 private:
  /// Domain layout of a sharded run: the finest fixed partition of model
  /// state (outer fabric, each LATA's routing, each server, each client
  /// host). Ordering keys are minted per domain, so results do not depend on
  /// how domains are then grouped into shards.
  struct ShardDomains {
    int outer = 0;
    std::vector<int> lata, server, client, extra_client, extra_server;
    int count = 1;
  };

  void plan_shards();
  void build_topology();
  void build_nodes();
  void build_clients();
  void build_cross_traffic();
  void build_fault_injector();
  void register_metrics();
  void register_fault_metrics();
  void prewarm();
  sim::DetachedTask connect_everything();
  void connect_all(sim::WaitGroup* wg);
  sim::Task<void> connect_pair(int i, int j, bool iscsi, sim::WaitGroup* wg);
  sim::DetachedTask version_gc_loop();
  sim::DetachedTask version_gc_loop_node(int i);
  void reset_all_stats();
  RunReport collect(sim::Duration measured);
  RunReport run_sharded();
  [[nodiscard]] sim::Time sim_now() {
    return shards_ != nullptr ? shards_->engine(0).now() : engine_.now();
  }

  ClusterConfig cfg_;
  sim::Engine engine_;
  sim::RngFactory rngs_;
  std::unique_ptr<sim::ShardSet> shards_;
  std::unique_ptr<sim::Engine::SharedRendezvous> rendezvous_;
  ShardDomains dom_;
  /// Per-node Lamport commit clocks (sharded mode; legacy shares
  /// global_clock_). IPC envelopes piggyback and max-merge them.
  std::vector<std::uint64_t> node_scn_;
  /// Per-client-host start gates (sharded mode), opened by a timed event on
  /// the host's own engine instead of the cross-engine ready_ gate.
  std::vector<std::unique_ptr<sim::Gate>> fleet_gates_;
  std::unique_ptr<db::TpccDatabase> db_;
  std::unique_ptr<net::Topology> topo_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<net::TcpStack>> client_stacks_;
  std::vector<std::unique_ptr<workload::TerminalFleet>> fleets_;
  std::vector<std::unique_ptr<workload::YcsbFleet>> ycsb_fleets_;
  std::vector<std::unique_ptr<net::TcpStack>> xtra_stacks_;
  std::vector<std::unique_ptr<proto::FtpServer>> ftp_servers_;
  std::vector<std::unique_ptr<proto::FtpClient>> ftp_clients_;
  std::unique_ptr<sim::Gate> ready_;
  std::uint64_t global_clock_ = 1;
  obs::MetricsRegistry registry_;
  std::unique_ptr<FaultInjector> injector_;
  std::uint64_t crashes_ = 0;
  std::uint64_t restarts_ = 0;
  std::uint64_t recoveries_ = 0;
  double recovery_seconds_ = 0.0;
  std::uint64_t locks_purged_ = 0;
  std::uint64_t dir_purged_ = 0;
  std::uint64_t cache_invalidated_ = 0;
};

}  // namespace dclue::core
