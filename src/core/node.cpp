#include "core/node.hpp"

#include <cmath>

#include "cluster/partition.hpp"

namespace dclue::core {
namespace {

/// Fraction of the database each node's buffer cache can hold.
constexpr double kBufferFraction = 0.75;
/// Data-store spindles per node (TPC-C submissions of the era used large
/// arrays; IO parallelism matters for the miss path).
constexpr int kDataSpindles = 96;
/// Version overflow area per node; it steals buffer-cache pages when low.
constexpr sim::Bytes kVersionOverflowBytes = sim::megabytes(4);

}  // namespace

Node::Node(sim::Engine& engine, const ClusterConfig& cfg, int id, net::Nic& nic,
           db::TpccDatabase& db, std::uint64_t db_pages,
           std::uint64_t* global_clock, const sim::RngFactory& rngs)
    : engine_(engine),
      cfg_(cfg),
      id_(id),
      rng_(rngs.stream("node", static_cast<std::uint64_t>(id))) {
  // --- platform -------------------------------------------------------------
  const cpu::PlatformParams platform = cpu::PlatformParams{}.scaled(cfg.scale);
  mem_ = std::make_unique<cpu::MemorySystem>(platform);
  proc_ = std::make_unique<cpu::Processor>(engine, platform, *mem_);

  // --- fabric ---------------------------------------------------------------
  net::TcpParams tcp_params;
  tcp_params.timer_scale = 0.01 * cfg.scale;  // DC-reduced, then slowed
  const net::TcpCostModel tcp_costs =
      cfg.hw_tcp ? net::TcpCostModel::hardware() : net::TcpCostModel::software();
  tcp_ = std::make_unique<net::TcpStack>(engine, nic, tcp_params, tcp_costs,
                                         proc_.get());
  // The cluster-fabric transport (IPC + iSCSI sessions). TCP is the paper's
  // baseline and is the stack above; RDMA brings up a second, kernel-bypass
  // stack on the same NIC. The TCP stack always exists: DB clients speak TCP
  // regardless of the cluster fabric.
  transport_ = tcp_.get();
  if (net::parse_transport_spec(cfg.transport_spec) ==
      net::TransportKind::kRdma) {
    net::RdmaParams rdma_params;
    rdma_params.timer_scale = 0.01 * cfg.scale;  // same reduction as TCP
    rdma_ = std::make_unique<net::RdmaStack>(engine, nic, rdma_params);
    transport_ = rdma_.get();
  }

  // --- storage ----------------------------------------------------------------
  const storage::DiskParams disk_params = storage::DiskParams{}.scaled(cfg.scale);
  data_disk_ = std::make_unique<storage::DiskArray>(
      engine, "data" + std::to_string(id), kDataSpindles, disk_params);
  log_disk_ = std::make_unique<storage::Disk>(engine, "log" + std::to_string(id),
                                              disk_params);
  const proto::IscsiCostModel iscsi_costs = cfg.hw_iscsi
                                                ? proto::IscsiCostModel::hardware()
                                                : proto::IscsiCostModel::software();
  iscsi_target_ = std::make_unique<proto::IscsiTarget>(engine, *data_disk_,
                                                       proc_.get(), iscsi_costs);
  iscsi_initiators_.resize(static_cast<std::size_t>(cfg.nodes));
  for (int peer = 0; peer < cfg.nodes; ++peer) {
    if (peer == id) continue;
    iscsi_initiators_[static_cast<std::size_t>(peer)] =
        std::make_unique<proto::IscsiInitiator>(engine, proc_.get(), iscsi_costs);
  }

  // --- database services ------------------------------------------------------
  const auto capacity = static_cast<std::size_t>(
      std::max<double>(64.0, kBufferFraction * static_cast<double>(db_pages)));
  cache_ = std::make_unique<db::BufferCache>(capacity);
  directory_ = std::make_unique<cluster::DirectoryService>();
  locks_ = std::make_unique<db::LockManager>(engine);
  versions_ = std::make_unique<db::VersionManager>(kVersionOverflowBytes, *cache_);
  log_ = std::make_unique<db::LogManager>(engine, log_disk_.get());

  // --- IPC + fusion -----------------------------------------------------------
  const PathLengths pl = PathLengths{}.with_computation_factor(cfg.computation_factor);
  ipc_ = std::make_unique<cluster::IpcService>(engine, id, stats_, pl.ipc_handler,
                                               proc_.get());
  ipc_->set_scn(global_clock);
  cluster::FusionDeps deps;
  deps.engine = &engine;
  deps.node_id = id;
  deps.ipc = ipc_.get();
  deps.cache = cache_.get();
  deps.directory = directory_.get();
  deps.locks = locks_.get();
  deps.data_disk = data_disk_.get();
  deps.log = log_.get();
  deps.iscsi.resize(static_cast<std::size_t>(cfg.nodes));
  for (int peer = 0; peer < cfg.nodes; ++peer) {
    deps.iscsi[static_cast<std::size_t>(peer)] =
        iscsi_initiators_[static_cast<std::size_t>(peer)].get();
  }
  deps.cpu = proc_.get();
  deps.pl = pl;
  deps.stats = &stats_;
  deps.dir_home_fn = [pm = cluster::PartitionMap(db, cfg.nodes)](db::PageId page) {
    return pm.home_of_page(page);
  };
  fusion_ = std::make_unique<cluster::FusionLayer>(std::move(deps));

  // --- transaction engine ------------------------------------------------------
  workload::NodeEnv env;
  env.engine = &engine;
  env.node_id = id;
  env.num_nodes = cfg.nodes;
  env.db = &db;
  env.fusion = fusion_.get();
  env.versions = versions_.get();
  env.log = log_.get();
  env.proc = proc_.get();
  env.stats = &stats_;
  env.pl = pl;
  env.global_clock = global_clock;
  env.rng = &rng_;
  env.lock_retry_delay = sim::milliseconds(0.3) * cfg.scale;
  env.alive = &alive_;
  env.sharded = cfg.shards > 0;
  executor_ = std::make_unique<workload::TxnExecutor>(std::move(env));
}

void Node::start_listeners() {
  for (int peer = 0; peer < cfg_.nodes; ++peer) {
    if (peer == id_) continue;
    ipc_accept(peer, transport_->listen(ipc_port_for(peer)));
    // iSCSI sessions: target accepts from each initiator node.
    auto& iscsi_listener = transport_->listen(iscsi_port_for(peer));
    sim::spawn([](Node* self, net::Listener& l) -> sim::Task<void> {
      auto conn = co_await l.accept();
      self->iscsi_target_->serve(std::make_shared<proto::MsgChannel>(conn));
    }(this, iscsi_listener));
  }
  db_accept(tcp_->listen(workload::kDbPort));
}

sim::DetachedTask Node::ipc_accept(int peer, net::Listener& listener) {
  auto conn = co_await listener.accept();
  ipc_->attach_peer(peer, std::make_shared<proto::MsgChannel>(conn));
}

sim::DetachedTask Node::db_accept(net::Listener& listener) {
  for (;;) {
    auto conn = co_await listener.accept();
    db_session(std::move(conn));
  }
}

sim::DetachedTask Node::db_session(std::shared_ptr<net::Endpoint> conn) {
  auto channel = std::make_shared<proto::MsgChannel>(conn);
  const PathLengths pl =
      PathLengths{}.with_computation_factor(cfg_.computation_factor);
  for (;;) {
    proto::Message msg = co_await channel->inbox().receive();
    if (msg.type == proto::kChannelReset) co_return;
    if (msg.type == proto::kChannelClosed) {
      // Terminal finished its business transaction: complete the teardown.
      if (!conn->closed()) conn->close();
      co_return;
    }
    const bool ycsb = msg.type == workload::kYcsbRequest;
    if (!ycsb && msg.type != workload::kClientRequest) continue;
    // One logical DBMS thread per in-flight request: this count is what the
    // cache-pressure and context-switch models see.
    const cpu::ThreadId tid = next_thread_++;
    proc_->thread_activated();
    co_await proc_->compute(pl.client_request, cpu::JobClass::kApplication, tid);
    proto::Message reply;
    if (ycsb) {
      auto body = std::static_pointer_cast<workload::YcsbRequestBody>(msg.payload);
      const int rows = co_await executor_->execute(body->op, tid);
      reply.type = workload::kYcsbReply;
      reply.bytes = workload::kYcsbReplyBaseBytes +
                    std::max(rows, 0) * db::TpccSpecs::ycsb.row_bytes;
      reply.payload = std::make_shared<workload::YcsbReplyBody>(
          workload::YcsbReplyBody{rows >= 0, std::max(rows, 0)});
    } else {
      auto body = std::static_pointer_cast<workload::ClientRequestBody>(msg.payload);
      const bool committed = co_await executor_->execute(body->input, tid);
      reply.type = workload::kClientReply;
      reply.bytes = workload::kReplyBytes;
      reply.payload = std::make_shared<workload::ClientReplyBody>(
          workload::ClientReplyBody{committed});
    }
    channel->send(std::move(reply));
    proc_->thread_deactivated();
  }
}

void Node::register_metrics(obs::MetricsRegistry& reg) {
  const std::string p = "node" + std::to_string(id_) + ".";
  stats_.register_into(reg, id_);
  proc_->register_metrics(reg, p + "cpu.");
  tcp_->register_metrics(reg, p + "tcp.");
  if (rdma_) rdma_->register_metrics(reg, p + "rdma.");
  ipc_->register_metrics(reg, p + "ipc.sent.");
  locks_->register_metrics(reg, p + "lock.");
  data_disk_->register_metrics(reg, p + "disk.data.");
  log_disk_->register_metrics(reg, p + "disk.log.");
  reg.gauge_fn(p + "cache.pages",
               [this] { return static_cast<double>(cache_->size()); });
  reg.gauge_fn(p + "cache.capacity_pages",
               [this] { return static_cast<double>(cache_->capacity()); });
  reg.gauge_fn(p + "cache.hit_ratio", [this] {
    const double hits = static_cast<double>(stats_.buffer_hits.count());
    const double total =
        hits + static_cast<double>(stats_.buffer_misses.count());
    return total > 0.0 ? hits / total : 0.0;
  });
  // DB-tier data-structure probes: average open-addressing probe length
  // across the node's four flat maps, and cumulative LRU eviction scan cost
  // (entries examined; exactly 1 per eviction).
  reg.gauge_fn(p + "db.probe_len", [this] {
    const sim::ProbeStats* stats[] = {
        &cache_->probe_stats(), &locks_->probe_stats(),
        &versions_->probe_stats(), &directory_->probe_stats()};
    std::uint64_t steps = 0, ops = 0;
    for (const auto* s : stats) {
      steps += s->steps;
      ops += s->ops;
    }
    return ops > 0 ? static_cast<double>(steps) / static_cast<double>(ops)
                   : 0.0;
  });
  reg.bind(p + "db.lru_evict_scans", &cache_->evict_scans());
  reg.gauge_fn(p + "mem.loaded_latency_s",
               [this] { return mem_->loaded_memory_latency_s(); });
  reg.gauge_fn(p + "mem.dbus_utilization",
               [this] { return mem_->data_bus_utilization(); });
  reg.gauge_fn(p + "mem.blended_mpi", [this] { return mem_->blended_mpi(); });
  // YCSB op counters exist only on ycsb runs, so TPC-C registry snapshots
  // (and the golden fixtures) are byte-identical to the seed.
  if (workload::is_ycsb(cfg_.workload_spec)) {
    for (int i = 0; i < workload::kNumYcsbOpTypes; ++i) {
      reg.bind(p + "ycsb." + workload::kYcsbOpNames[i],
               &executor_->op_counter(i));
    }
  }
}

}  // namespace dclue::core
