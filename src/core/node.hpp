#pragma once

/// \file node.hpp
/// One clustered-DBMS server node: the paper's P4 DP platform model, the
/// unified-fabric TCP stack, data and log disks, iSCSI target and
/// initiators, buffer cache, the node's share of the lock and directory
/// services, MVCC version area, WAL, and the transaction execution engine
/// fed by client-server requests.

#include <memory>
#include <vector>

#include "cluster/directory.hpp"
#include "cluster/fusion.hpp"
#include "cluster/ipc.hpp"
#include "core/config.hpp"
#include "core/node_stats.hpp"
#include "cpu/memory_system.hpp"
#include "cpu/processor.hpp"
#include "db/buffer_cache.hpp"
#include "db/lock_manager.hpp"
#include "db/log_manager.hpp"
#include "db/mvcc.hpp"
#include "db/tpcc_schema.hpp"
#include "net/rdma.hpp"
#include "net/tcp.hpp"
#include "net/topology.hpp"
#include "net/transport.hpp"
#include "proto/iscsi.hpp"
#include "storage/disk_array.hpp"
#include "workload/client.hpp"
#include "workload/tpcc_txn.hpp"
#include "workload/ycsb.hpp"

namespace dclue::core {

class Node {
 public:
  /// \p db_pages is `db.total_data_pages()`, which sizes the buffer cache.
  /// The caller counts it once per database: every node shares one count,
  /// and counting walks every index.
  Node(sim::Engine& engine, const ClusterConfig& cfg, int id, net::Nic& nic,
       db::TpccDatabase& db, std::uint64_t db_pages,
       std::uint64_t* global_clock, const sim::RngFactory& rngs);
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Start IPC / iSCSI listeners for every would-be peer and the DB server
  /// port. Call before any peer connects.
  void start_listeners();

  /// Peer-facing ports: node j listens for node i on these.
  static std::uint16_t ipc_port_for(int connector) {
    return static_cast<std::uint16_t>(7000 + connector);
  }
  static std::uint16_t iscsi_port_for(int connector) {
    return static_cast<std::uint16_t>(9000 + connector);
  }

  [[nodiscard]] int id() const { return id_; }
  [[nodiscard]] net::TcpStack& tcp() { return *tcp_; }
  /// The configured cluster-fabric transport (ClusterConfig::transport_spec):
  /// IPC and iSCSI sessions ride this. The DB client port always stays on
  /// the TCP stack — client fleets are outside the cluster fabric.
  [[nodiscard]] net::Transport& transport() { return *transport_; }
  [[nodiscard]] net::TransportKind transport_kind() const {
    return transport_->kind();
  }
  [[nodiscard]] cluster::IpcService& ipc() { return *ipc_; }
  [[nodiscard]] cluster::FusionLayer& fusion() { return *fusion_; }
  [[nodiscard]] proto::IscsiInitiator& iscsi_initiator(int target) {
    return *iscsi_initiators_[static_cast<std::size_t>(target)];
  }
  [[nodiscard]] db::LogManager& log_manager() { return *log_; }
  [[nodiscard]] storage::Disk& log_disk() { return *log_disk_; }
  [[nodiscard]] cpu::Processor& processor() { return *proc_; }
  [[nodiscard]] cpu::MemorySystem& memory() { return *mem_; }
  [[nodiscard]] db::VersionManager& versions() { return *versions_; }
  [[nodiscard]] db::BufferCache& cache() { return *cache_; }
  [[nodiscard]] cluster::DirectoryService& directory() { return *directory_; }
  [[nodiscard]] db::LockManager& locks() { return *locks_; }
  [[nodiscard]] storage::DiskArray& data_disk() { return *data_disk_; }
  [[nodiscard]] proto::IscsiTarget& iscsi_target() { return *iscsi_target_; }
  [[nodiscard]] NodeStats& stats() { return stats_; }
  [[nodiscard]] const NodeStats& stats() const { return stats_; }

  /// Crash-stop liveness. While false the executor aborts every transaction
  /// at its next alive check, so a crashed node applies no writes and holds
  /// no locks beyond the purge. Flipped by Cluster::crash_node/restart_node.
  [[nodiscard]] bool alive() const { return alive_; }
  void set_alive(bool alive) { alive_ = alive; }

  /// Bind every collector this node owns (stats, CPU, TCP, IPC classes,
  /// lock table, disks, cache and memory-system gauges) under "node<id>.".
  void register_metrics(obs::MetricsRegistry& reg);

 private:
  sim::DetachedTask ipc_accept(int peer, net::Listener& listener);
  sim::DetachedTask db_accept(net::Listener& listener);
  sim::DetachedTask db_session(std::shared_ptr<net::Endpoint> conn);

  sim::Engine& engine_;
  const ClusterConfig cfg_;
  int id_;

  std::unique_ptr<cpu::MemorySystem> mem_;
  std::unique_ptr<cpu::Processor> proc_;
  std::unique_ptr<net::TcpStack> tcp_;
  std::unique_ptr<net::RdmaStack> rdma_;  ///< built only when configured
  std::unique_ptr<net::Transport> transport_;
  std::unique_ptr<storage::DiskArray> data_disk_;
  std::unique_ptr<storage::Disk> log_disk_;
  std::unique_ptr<proto::IscsiTarget> iscsi_target_;
  std::vector<std::unique_ptr<proto::IscsiInitiator>> iscsi_initiators_;
  std::unique_ptr<db::BufferCache> cache_;
  std::unique_ptr<cluster::DirectoryService> directory_;
  std::unique_ptr<db::LockManager> locks_;
  std::unique_ptr<db::VersionManager> versions_;
  std::unique_ptr<db::LogManager> log_;
  std::unique_ptr<cluster::IpcService> ipc_;
  std::unique_ptr<cluster::FusionLayer> fusion_;
  std::unique_ptr<workload::TpccExecutor> executor_;
  std::unique_ptr<workload::YcsbExecutor> ycsb_executor_;  ///< ycsb runs only
  sim::Rng rng_;
  NodeStats stats_;
  cpu::ThreadId next_thread_ = 1;
  bool alive_ = true;
};

}  // namespace dclue::core
