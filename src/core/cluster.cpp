#include "core/cluster.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "cluster/partition.hpp"
#include "core/fault_injector.hpp"
#include "core/recovery.hpp"
#include "net/transport.hpp"
#include "sim/obs/trace.hpp"

namespace dclue::core {

Cluster::Cluster(ClusterConfig cfg) : cfg_(std::move(cfg)), rngs_(cfg_.seed) {
  if (cfg_.nodes > cluster::DirectoryService::kMaxNodes) {
    throw std::invalid_argument(
        "cfg.nodes must be at most " +
        std::to_string(cluster::DirectoryService::kMaxNodes) +
        ": directory holder ids are 16-bit");
  }
  if (cfg_.shards > 0) plan_shards();
  db::TpccScale scale;
  scale.warehouses = cfg_.warehouses();
  scale.customers_per_district = cfg_.customers_per_district;
  scale.items = cfg_.items;
  scale.district_subpage_override = cfg_.district_subpage_bytes;
  db_ = std::make_unique<db::TpccDatabase>(scale);
  // Populate before building nodes: buffer-cache capacities are sized from
  // the real table footprint.
  sim::Rng pop_rng = rngs_.stream("populate");
  db_->populate(pop_rng);
  // The keyed table exists only on ycsb runs: an empty Table still reports
  // one data page, which would perturb every node's cache capacity (and the
  // golden TPC-C figures) if it were built unconditionally. Must happen
  // before build_nodes() — capacities are sized from total_data_pages().
  if (workload::is_ycsb(cfg_.workload_spec)) {
    db_->build_ycsb(cfg_.ycsb_records);
  }
  if (shards_) db_->enable_sharded_access();
  if (!shards_) ready_ = std::make_unique<sim::Gate>(engine_);
  build_topology();
  build_nodes();
  build_clients();
  build_cross_traffic();
  register_metrics();
  build_fault_injector();
  // All boundary links have registered their lookaheads by now; later event
  // scheduling is always engine-local until the run starts routing.
  if (shards_) shards_->finalize();
}

void Cluster::plan_shards() {
  // The determinism audit (DESIGN.md §"Sharded engine internals") holds only
  // when every behavioral phase-1 read executes on the shard of its writers,
  // which is exactly the affinity-1.0 routing invariant.
  if (cfg_.affinity != 1.0) {
    throw std::invalid_argument(
        "cfg.shards > 0 requires affinity == 1.0: remote-routed transactions "
        "read rows whose writers run on other shards");
  }
  const int latas = cfg_.latas();
  const int spl = cfg_.servers_per_lata();
  const bool cross_traffic = cfg_.ftp.offered_load_mbps > 0.0;
  const int client_hosts = cfg_.client_hosts();
  int next = 0;
  dom_.outer = next++;
  dom_.lata.resize(static_cast<std::size_t>(latas));
  for (int& d : dom_.lata) d = next++;
  dom_.server.resize(static_cast<std::size_t>(latas * spl));
  for (int& d : dom_.server) d = next++;
  dom_.client.resize(static_cast<std::size_t>(client_hosts));
  for (int& d : dom_.client) d = next++;
  dom_.extra_client.resize(cross_traffic ? 1 : 0);
  for (int& d : dom_.extra_client) d = next++;
  dom_.extra_server.resize(cross_traffic ? static_cast<std::size_t>(latas) : 0);
  for (int& d : dom_.extra_server) d = next++;
  dom_.count = next;
  if (dom_.count > 255) {
    throw std::invalid_argument(
        "sharded run needs more than 255 event domains; reduce nodes");
  }
  sim::ShardPlan plan;
  plan.shards = std::clamp(cfg_.shards, 1, dom_.count);
  plan.parallel = cfg_.shard_parallel;
  plan.shard_of_domain.resize(static_cast<std::size_t>(dom_.count));
  for (int d = 0; d < dom_.count; ++d) {
    plan.shard_of_domain[static_cast<std::size_t>(d)] = d % plan.shards;
  }
  shards_ = std::make_unique<sim::ShardSet>(std::move(plan));
  rendezvous_ = std::make_unique<sim::Engine::Rendezvous>();
  for (int s = 0; s < shards_->shards(); ++s) {
    shards_->engine(s).share_rendezvous(*rendezvous_);
  }
  node_scn_.assign(static_cast<std::size_t>(cfg_.nodes), 1);
}

Cluster::~Cluster() = default;

void Cluster::build_topology() {
  net::TopologyParams tp;
  tp.latas = cfg_.latas();
  tp.servers_per_lata = cfg_.servers_per_lata();
  tp.client_hosts = cfg_.client_hosts();
  const bool cross_traffic = cfg_.ftp.offered_load_mbps > 0.0;
  tp.extra_client_hosts = cross_traffic ? 1 : 0;
  tp.extra_servers_per_lata = cross_traffic ? 1 : 0;

  tp.host_link_rate = sim::gbps(1) / cfg_.scale;
  tp.inter_lata_rate = sim::gbps(1) / cfg_.scale;
  tp.host_link_prop = sim::microseconds(5) * cfg_.scale;
  tp.inter_lata_prop = sim::microseconds(5) * cfg_.scale;
  tp.extra_inter_lata_latency = cfg_.extra_inter_lata_latency * cfg_.scale;

  // DCQCN precondition: an RDMA cluster fabric must be ECN-enabled (every
  // RoCE deployment guide mandates it) — the queues mark data frames early
  // and the QPs rate-reduce on the echoed CNP, so congestion rarely reaches
  // the tail-drop limit where go-back-N would hurt. TCP runs keep the
  // paper's tail-drop fabric unless --wred asks otherwise.
  const bool rdma_fabric = net::parse_transport_spec(cfg_.transport_spec) ==
                           net::TransportKind::kRdma;
  tp.qos.ecn_mark_threshold_bytes =
      (cfg_.ecn_marking || rdma_fabric) ? sim::kilobytes(32) : 0;
  tp.qos.scheduler = cfg_.qos.scheduler;
  tp.qos.wfq_weight = {4.0, 1.0};  // {best-effort, AF21} under kWfq
  if (cfg_.qos.wred) tp.qos.drop = net::DropPolicy::kWred;
  if (cfg_.qos.af_police_mbps > 0.0) {
    tp.qos.police[static_cast<std::size_t>(net::Dscp::kAF21)] = {
        cfg_.qos.af_police_mbps * 1e6 / cfg_.scale, sim::kilobytes(64)};
  }

  net::RouterParams router;
  router.forwarding_rate_pps = cfg_.router_pps_at_scale100 * 100.0 / cfg_.scale;
  tp.inner_router = router;
  tp.outer_router = router;

  if (shards_) {
    net::TopologyDomains td;
    td.shards = shards_.get();
    td.outer = dom_.outer;
    td.lata = dom_.lata;
    td.server = dom_.server;
    td.client = dom_.client;
    td.extra_client = dom_.extra_client;
    td.extra_server = dom_.extra_server;
    topo_ = std::make_unique<net::Topology>(shards_->engine(0), tp, &td);
  } else {
    topo_ = std::make_unique<net::Topology>(engine_, tp);
  }
}

void Cluster::build_nodes() {
  const std::uint64_t db_pages = db_->total_data_pages();
  for (int i = 0; i < cfg_.nodes; ++i) {
    const int d = server_domain(i);
    sim::Engine& eng = domain_engine(d);
    sim::DomainScope scope(eng, static_cast<std::uint32_t>(d));
    std::uint64_t* clock =
        shards_ ? &node_scn_[static_cast<std::size_t>(i)] : &global_clock_;
    nodes_.push_back(std::make_unique<Node>(eng, cfg_, i, topo_->server_nic(i),
                                            *db_, db_pages, clock, rngs_));
  }
  for (int i = 0; i < cfg_.nodes; ++i) {
    const int d = server_domain(i);
    sim::DomainScope scope(domain_engine(d), static_cast<std::uint32_t>(d));
    nodes_[static_cast<std::size_t>(i)]->start_listeners();
  }

  if (cfg_.central_logging && cfg_.nodes > 1) {
    // Fig 9: node 0 performs all logging; other nodes ship flushes over IPC
    // to its fusion layer, which writes them to its log.
    for (int i = 1; i < cfg_.nodes; ++i) {
      Node* node = nodes_[static_cast<std::size_t>(i)].get();
      node->log_manager().set_remote_flush(
          [node](sim::Bytes bytes) -> sim::Task<void> {
            co_await node->fusion().remote_log_flush(0, bytes);
          });
    }
  }
}

void Cluster::build_clients() {
  std::vector<net::Address> server_addrs;
  for (int i = 0; i < cfg_.nodes; ++i) {
    server_addrs.push_back(topo_->server_nic(i).address());
  }
  const cluster::PartitionMap pm(*db_, cfg_.nodes);

  const int total_terminals = cfg_.nodes * cfg_.terminals_per_node;
  const int hosts = topo_->num_clients();
  const bool ycsb = workload::is_ycsb(cfg_.workload_spec);
  const workload::ArrivalSpec arrival =
      ycsb ? workload::parse_arrival_spec(cfg_.ycsb_arrival)
           : workload::ArrivalSpec{};
  int assigned = 0;
  for (int h = 0; h < hosts; ++h) {
    const int d = shards_ ? dom_.client[static_cast<std::size_t>(h)] : 0;
    sim::Engine& eng = domain_engine(d);
    sim::DomainScope scope(eng, static_cast<std::uint32_t>(d));
    auto stack = std::make_unique<net::TcpStack>(
        eng, topo_->client_nic(h), net::TcpParams{.timer_scale = 0.01 * cfg_.scale},
        cfg_.hw_tcp ? net::TcpCostModel::hardware() : net::TcpCostModel::software(),
        /*cpu=*/nullptr);
    sim::Gate* gate = nullptr;
    if (shards_) {
      // Cross-engine gates are not safe: each host gets its own gate, opened
      // by a timed event on its own engine (see run_sharded()).
      fleet_gates_.push_back(std::make_unique<sim::Gate>(eng));
      gate = fleet_gates_.back().get();
    } else {
      gate = ready_.get();
    }
    if (ycsb) {
      workload::YcsbFleetParams yp;
      yp.spec = workload::make_ycsb_spec(cfg_);
      yp.arrival = arrival;
      // The configured rate is per server node (like open_loop_bt_rate_per_
      // node); each client host carries an equal share of the cluster total
      // so offered load is independent of the host count.
      yp.arrival.rate = arrival.rate * cfg_.nodes / hosts;
      yp.affinity = cfg_.affinity;
      yp.host_index = h;
      yp.server_addrs = server_addrs;
      yp.start_gate = gate;
      ycsb_fleets_.push_back(std::make_unique<workload::YcsbFleet>(
          eng, *stack, pm, std::move(yp), rngs_));
    } else {
      const int share = (total_terminals - assigned) / (hosts - h);
      workload::TerminalFleetParams fp;
      fp.terminals = share;
      fp.first_terminal_index = assigned;
      fp.think_time = cfg_.think_time * cfg_.scale;
      fp.open_loop_rate =
          cfg_.open_loop_bt_rate_per_node * cfg_.nodes / hosts;
      fp.affinity = cfg_.affinity;
      fp.server_addrs = server_addrs;
      fp.start_gate = gate;
      fleets_.push_back(std::make_unique<workload::TerminalFleet>(
          eng, *stack, db_->scale(), pm, std::move(fp), rngs_));
      assigned += share;
    }
    client_stacks_.push_back(std::move(stack));
  }
}

void Cluster::build_cross_traffic() {
  if (cfg_.ftp.offered_load_mbps <= 0.0) return;
  // Extra servers inside each LATA; extra client at the outer router, so FTP
  // flows share the inter-LATA links with DBMS traffic (Fig 1).
  std::vector<net::Address> ftp_servers;
  for (int s = 0; s < topo_->num_extra_servers(); ++s) {
    const int d = shards_ ? dom_.extra_server[static_cast<std::size_t>(s)] : 0;
    sim::Engine& eng = domain_engine(d);
    sim::DomainScope scope(eng, static_cast<std::uint32_t>(d));
    auto stack = std::make_unique<net::TcpStack>(
        eng, topo_->extra_server_nic(s),
        net::TcpParams{.timer_scale = 0.01 * cfg_.scale}, net::TcpCostModel::hardware(),
        /*cpu=*/nullptr);
    ftp_servers_.push_back(std::make_unique<proto::FtpServer>(eng, *stack, 21));
    ftp_servers.push_back(topo_->extra_server_nic(s).address());
    xtra_stacks_.push_back(std::move(stack));
  }
  const int cd = shards_ ? dom_.extra_client[0] : 0;
  sim::Engine& ceng = domain_engine(cd);
  sim::DomainScope cscope(ceng, static_cast<std::uint32_t>(cd));
  auto stack = std::make_unique<net::TcpStack>(
      ceng, topo_->extra_client_nic(0),
      net::TcpParams{.timer_scale = 0.01 * cfg_.scale}, net::TcpCostModel::hardware(),
      /*cpu=*/nullptr);
  proto::FtpTrafficParams fparams;
  fparams.offered_load_bps = cfg_.ftp.offered_load_mbps * 1e6 / cfg_.scale;
  fparams.dscp = cfg_.ftp.high_priority ? net::Dscp::kAF21 : net::Dscp::kBestEffort;
  ftp_clients_.push_back(std::make_unique<proto::FtpClient>(
      ceng, *stack, std::move(ftp_servers), fparams, rngs_.stream("ftp")));
  xtra_stacks_.push_back(std::move(stack));
}

void Cluster::build_fault_injector() {
  if (cfg_.fault_spec.empty()) return;
  sim::fault::FaultSpec spec = sim::fault::parse_fault_spec(cfg_.fault_spec);
  // Unspecified windows default to the measurement window: faults start at
  // the warmup boundary and the last 20% is left fault-free so recoveries
  // finish inside the run.
  if (spec.start < 0.0) spec.start = cfg_.warmup;
  if (spec.span <= 0.0) spec.span = 0.8 * cfg_.measure;
  sim::Rng plan_rng = rngs_.stream("fault.plan");
  injector_ = std::make_unique<FaultInjector>(
      *this, sim::fault::generate_plan(spec, cfg_.nodes, plan_rng), rngs_);
  register_fault_metrics();
}

void Cluster::crash_node(int id) {
  Node& dead = node(id);
  if (!dead.alive()) return;
  ++crashes_;
  DCLUE_TRACE_INSTANT("fault", "node_crash", engine_.now(), id);
  // Crash-stop: the executor aborts every transaction at its next liveness
  // check, so the dead node applies no further writes.
  dead.set_alive(false);
  // Its access links go dark. Transport peers keep state and retransmit
  // (TCP's RTO backoff or the RDMA retry timer); frames simply stop flowing
  // until restart.
  topo_->server_uplink(id).set_link_down(true);
  topo_->server_downlink(id).set_link_down(true);
  // Fail every in-flight IPC exchange cluster-wide. This over-approximates
  // (exchanges between two healthy nodes fail too — correlation ids do not
  // record the peer) but is deterministic and safe: each waiter takes its
  // degraded fallback (disk read / lock retry) exactly once.
  for (auto& n : nodes_) n->ipc().fail_all_pending();
  const int num = cfg_.nodes;
  for (int i = 0; i < num; ++i) {
    Node& n = node(i);
    if (i == id) {
      // The crashed node's own volatile state is simply gone.
      locks_purged_ += n.locks().purge_if([](db::TxnToken) { return true; });
      dir_purged_ += n.directory().entries();
      n.directory().clear();
      cache_invalidated_ +=
          n.cache().invalidate_if([](db::PageId) { return true; });
    } else {
      // Re-master: tokens are minted as seq * num_nodes + node_id, so the
      // dead node's transactions are exactly token % num == id.
      locks_purged_ += n.locks().purge_if([num, id](db::TxnToken t) {
        return static_cast<int>(t % static_cast<db::TxnToken>(num)) == id;
      });
      dir_purged_ += n.directory().purge_holder(id);
      // Pages whose directory home died must be dropped: the restarted
      // directory comes back empty and must not disagree with caches.
      cache_invalidated_ += n.cache().invalidate_if(
          [&n, id](db::PageId p) { return n.fusion().dir_home(p) == id; });
    }
  }
}

void Cluster::restart_node(int id) {
  Node& n = node(id);
  if (n.alive()) return;
  ++restarts_;
  DCLUE_TRACE_INSTANT("fault", "node_restart", engine_.now(), id);
  topo_->server_uplink(id).set_link_down(false);
  topo_->server_downlink(id).set_link_down(false);
  // The node rejoins the fabric immediately (TCP retransmits drain), but
  // accepts transactions only after redo completes on the coordinator.
  sim::spawn([](Cluster* c, int failed) -> sim::Task<void> {
    const sim::Time t0 = c->engine().now();
    const RecoveryReport rep = co_await run_recovery(*c, failed);
    c->recovery_seconds_ += rep.total_seconds;
    ++c->recoveries_;
    c->node(failed).set_alive(true);
    DCLUE_TRACE_SPAN("fault", "recovery", t0, c->engine().now(), failed);
  }(this, id));
}

sim::DetachedTask Cluster::connect_everything() {
  sim::WaitGroup wg(engine_);
  connect_all(&wg);
  if (cfg_.nodes > 1) co_await wg.wait();
  ready_->open();
}

void Cluster::connect_all(sim::WaitGroup* wg) {
  // All sessions are established concurrently (a sequential handshake chain
  // would push cluster bring-up into the measurement window on high-latency
  // fabrics). One duplex IPC connection per unordered node pair, plus a
  // directed iSCSI session from every initiator to every target. A sharded
  // run passes no WaitGroup (a cross-engine primitive): its fleets are
  // released by per-host timed gates instead (see run_sharded()).
  for (int i = 0; i < cfg_.nodes; ++i) {
    const int d = server_domain(i);
    sim::DomainScope scope(domain_engine(d), static_cast<std::uint32_t>(d));
    for (int j = i + 1; j < cfg_.nodes; ++j) {
      if (wg != nullptr) wg->add();
      sim::spawn(connect_pair(i, j, false, wg));
    }
    for (int j = 0; j < cfg_.nodes; ++j) {
      if (i == j) continue;
      if (wg != nullptr) wg->add();
      sim::spawn(connect_pair(i, j, true, wg));
    }
  }
}

// A member coroutine, not a lambda: the parameters and `this` are copied into
// the coroutine frame, so they outlive connect_all(), which returns before
// any of the spawned handshakes complete.
sim::Task<void> Cluster::connect_pair(int i, int j, bool iscsi,
                                      sim::WaitGroup* wg) {
  Node& node = *nodes_[static_cast<std::size_t>(i)];
  auto conn = node.transport().connect(
      topo_->server_nic(j).address(),
      iscsi ? Node::iscsi_port_for(i) : Node::ipc_port_for(i));
  auto channel = std::make_shared<proto::MsgChannel>(conn);
  co_await conn->established().wait();
  if (iscsi) {
    node.iscsi_initiator(j).attach(channel);
  } else {
    node.ipc().attach_peer(j, channel);
  }
  if (wg != nullptr) wg->done();
}

sim::DetachedTask Cluster::version_gc_loop() {
  for (;;) {
    co_await sim::delay_for(engine_, 0.25);
    const db::Timestamp min_active =
        global_clock_ > 2'000 ? global_clock_ - 2'000 : 0;
    for (auto& node : nodes_) {
      node->versions().gc(min_active, 512);
    }
  }
}

sim::DetachedTask Cluster::version_gc_loop_node(int i) {
  // Per-node GC against the node's own commit clock: version chains are
  // node-local, so the cluster-wide sweep of the legacy loop decomposes
  // cleanly onto shards.
  sim::Engine& eng = domain_engine(server_domain(i));
  for (;;) {
    co_await sim::delay_for(eng, 0.25);
    const std::uint64_t scn = node_scn_[static_cast<std::size_t>(i)];
    const db::Timestamp min_active = scn > 2'000 ? scn - 2'000 : 0;
    nodes_[static_cast<std::size_t>(i)]->versions().gc(min_active, 512);
  }
}

void Cluster::register_metrics() {
  for (auto& node : nodes_) node->register_metrics(registry_);
  topo_->register_metrics(registry_);
  for (std::size_t i = 0; i < ftp_clients_.size(); ++i) {
    ftp_clients_[i]->register_metrics(
        registry_, "ftp.client" + std::to_string(i) + ".");
  }
  // Per-shard window-protocol diagnostics: registered only when the run is
  // actually split (>1 shard). The values are wall-clock/schedule dependent
  // (blocked time, mailbox depths), so identity comparisons exclude the
  // "shard." prefix — see scripts/bench_compare.py.
  if (shards_ && shards_->shards() > 1) {
    const sim::ShardSet* ss = shards_.get();
    for (int s = 0; s < ss->shards(); ++s) {
      const std::string p = "shard." + std::to_string(s) + ".";
      registry_.gauge_fn(p + "windows", [ss, s] {
        return static_cast<double>(ss->stats(s).windows);
      });
      registry_.gauge_fn(p + "blocked_spins", [ss, s] {
        return static_cast<double>(ss->stats(s).blocked_spins);
      });
      registry_.gauge_fn(p + "blocked_seconds",
                         [ss, s] { return ss->stats(s).blocked_seconds; });
      registry_.gauge_fn(p + "envelopes_out", [ss, s] {
        return static_cast<double>(ss->stats(s).envelopes_out);
      });
      registry_.gauge_fn(p + "envelopes_in", [ss, s] {
        return static_cast<double>(ss->stats(s).envelopes_in);
      });
      registry_.gauge_fn(p + "max_mailbox_depth", [ss, s] {
        return static_cast<double>(ss->stats(s).max_mailbox_depth);
      });
      registry_.gauge_fn(p + "max_horizon_lead",
                         [ss, s] { return ss->stats(s).max_horizon_lead; });
      registry_.gauge_fn(p + "mailbox_nodes", [ss, s] {
        return static_cast<double>(ss->stats(s).mailbox_nodes);
      });
    }
  }
  // Which fabric transport the cluster ran on (0 = tcp, 1 = rdma): lets a
  // report consumer tell twin sweeps apart without parsing the config echo.
  registry_.gauge_fn("net.transport", [this] {
    return static_cast<double>(static_cast<int>(nodes_.front()->transport_kind()));
  });
  // Terminal fleets accumulate over the whole run (business_txns includes
  // warmup by design), so they join as sampled gauges, never reset.
  for (std::size_t h = 0; h < fleets_.size(); ++h) {
    const std::string p = "client" + std::to_string(h) + ".";
    workload::TerminalFleet* fleet = fleets_[h].get();
    registry_.gauge_fn(p + "business_txns", [fleet] {
      return static_cast<double>(fleet->business_txns_completed());
    });
    registry_.gauge_fn(p + "admission_drops", [fleet] {
      return static_cast<double>(fleet->admission_drops());
    });
    registry_.gauge_fn(p + "connection_failures", [fleet] {
      return static_cast<double>(fleet->connection_failures());
    });
  }
  // YCSB fleets: completions and sojourns are *bound* (they reset at the
  // warmup boundary so the report reads measure-window values); the arrival
  // and queue-shape accountings are whole-run gauges like the terminal ones.
  for (std::size_t h = 0; h < ycsb_fleets_.size(); ++h) {
    const std::string p = "client" + std::to_string(h) + ".ycsb.";
    workload::YcsbFleet* fleet = ycsb_fleets_[h].get();
    registry_.bind(p + "ops_completed", &fleet->ops_completed());
    registry_.bind(p + "sojourn", &fleet->sojourn());
    registry_.gauge_fn(p + "arrivals", [fleet] {
      return static_cast<double>(fleet->arrivals());
    });
    registry_.gauge_fn(p + "admission_drops", [fleet] {
      return static_cast<double>(fleet->admission_drops());
    });
    registry_.gauge_fn(p + "connection_failures", [fleet] {
      return static_cast<double>(fleet->connection_failures());
    });
    registry_.gauge_fn(p + "queue_max_depth", [fleet] {
      return static_cast<double>(fleet->queue_max_depth());
    });
  }
}

void Cluster::register_fault_metrics() {
  // Only bound when a fault plan is active, so a clean run's registry (and
  // therefore golden_fig output) is byte-identical with the subsystem
  // compiled in.
  registry_.gauge_fn("fault.injected", [this] {
    return static_cast<double>(injector_->injected());
  });
  registry_.gauge_fn("fault.link_events", [this] {
    return static_cast<double>(injector_->link_events());
  });
  registry_.gauge_fn("fault.disk_events", [this] {
    return static_cast<double>(injector_->disk_events());
  });
  registry_.gauge_fn("fault.node_events", [this] {
    return static_cast<double>(injector_->node_events());
  });
  registry_.gauge_fn("fault.link_drops", [this] {
    std::uint64_t total = 0;
    for (int i = 0; i < cfg_.nodes; ++i) {
      total += topo_->server_uplink(i).fault_drops();
      total += topo_->server_downlink(i).fault_drops();
    }
    return static_cast<double>(total);
  });
  registry_.gauge_fn("fault.link_corrupts", [this] {
    std::uint64_t total = 0;
    for (int i = 0; i < cfg_.nodes; ++i) {
      total += topo_->server_uplink(i).fault_corrupts();
      total += topo_->server_downlink(i).fault_corrupts();
    }
    return static_cast<double>(total);
  });
  registry_.gauge_fn("fault.nic_fcs_drops", [this] {
    std::uint64_t total = 0;
    for (int i = 0; i < cfg_.nodes; ++i) {
      total += topo_->server_nic(i).fcs_drops();
    }
    return static_cast<double>(total);
  });
  registry_.gauge_fn("fault.disk_io_errors", [this] {
    std::uint64_t total = 0;
    for (auto& n : nodes_) {
      total += n->data_disk().io_errors() + n->log_disk().io_errors();
    }
    return static_cast<double>(total);
  });
  registry_.gauge_fn("fault.iscsi_retries", [this] {
    std::uint64_t total = 0;
    for (auto& n : nodes_) total += n->iscsi_target().io_retries();
    return static_cast<double>(total);
  });
  registry_.gauge_fn("fault.iscsi_failed_ops", [this] {
    std::uint64_t total = 0;
    for (int i = 0; i < cfg_.nodes; ++i) {
      for (int j = 0; j < cfg_.nodes; ++j) {
        if (i != j) total += node(i).iscsi_initiator(j).failed_ops();
      }
    }
    return static_cast<double>(total);
  });
  registry_.gauge_fn("fault.ipc_failed_rpcs", [this] {
    std::uint64_t total = 0;
    for (auto& n : nodes_) total += n->ipc().failed_rpcs();
    return static_cast<double>(total);
  });
  registry_.gauge_fn("fault.ipc_dropped_sends", [this] {
    std::uint64_t total = 0;
    for (auto& n : nodes_) total += n->ipc().dropped_sends();
    return static_cast<double>(total);
  });
  registry_.gauge_fn("fault.locks_purged", [this] {
    return static_cast<double>(locks_purged_);
  });
  registry_.gauge_fn("fault.dir_purged", [this] {
    return static_cast<double>(dir_purged_);
  });
  registry_.gauge_fn("fault.cache_invalidated", [this] {
    return static_cast<double>(cache_invalidated_);
  });
  registry_.gauge_fn("fault.crashes",
                     [this] { return static_cast<double>(crashes_); });
  registry_.gauge_fn("fault.restarts",
                     [this] { return static_cast<double>(restarts_); });
  registry_.gauge_fn("fault.recoveries",
                     [this] { return static_cast<double>(recoveries_); });
  registry_.gauge_fn("fault.recovery_seconds",
                     [this] { return recovery_seconds_; });
}

void Cluster::reset_all_stats() {
  // One reset surface: bound collectors reset directly, subsystems with
  // internal per-instance stats (topology access links, disk-array
  // spindles) restart through their registered reset hooks.
  registry_.reset_window(sim_now());
}

void Cluster::prewarm() {
  // Seed each node's buffer cache with its partition's hot pages (and the
  // cluster directories with matching holder records), hottest tables first.
  // A real deployment measures steady state, not a cold cache; faulting the
  // working set through the 100x-slowed disks would consume the entire run.
  // Each page warms at its directory home, which also records the holder.
  // Pages are grouped by home in table order, so each node sees the same
  // inserts in the same order (its LRU order) as a page-by-page pass, and
  // its cache map and directory are sized once for them.
  const cluster::PartitionMap pm(*db_, cfg_.nodes);
  std::vector<std::vector<db::PageId>> homed(nodes_.size());
  auto collect = [&homed, &pm](db::PageId page) {
    homed[static_cast<std::size_t>(pm.home_of_page(page))].push_back(page);
  };
  // A table's data pages, then its index leaf pages, each in key order.
  auto collect_table = [&collect](const auto& table) {
    table.for_each_data_page(collect);
    table.for_each_index_page(collect);
  };
  collect_table(db_->warehouse);
  collect_table(db_->district);
  collect_table(db_->item);
  collect_table(db_->stock);
  collect_table(db_->new_order);
  collect_table(db_->order);
  collect_table(db_->order_line);
  collect_table(db_->customer);
  if (db_->ycsb) collect_table(*db_->ycsb);

  for (std::size_t home = 0; home < homed.size(); ++home) {
    std::vector<db::PageId>& pages = homed[home];
    Node& node = *nodes_[home];
    // Warm a node up to 90 % of its capacity: its first ⌈0.9·capacity⌉
    // pages (this binds only on a 1-node cluster).
    const std::size_t n =
        std::min(pages.size(), (node.cache().capacity() * 9 + 9) / 10);
    node.cache().reserve(n);
    node.directory().reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      node.cache().insert(pages[i], db::PageMode::kShared);
      node.directory().confirm(pages[i], static_cast<int>(home));
    }
    std::vector<db::PageId>().swap(pages);  // release the list now
  }
}

RunReport Cluster::run() {
  if (shards_) return run_sharded();
  prewarm();
  connect_everything();
  version_gc_loop();
  for (auto& fleet : fleets_) fleet->start();
  for (auto& fleet : ycsb_fleets_) fleet->start();
  for (auto& ftp : ftp_clients_) ftp->start();
  if (injector_) injector_->arm();

  engine_.run_until(cfg_.warmup);
  reset_all_stats();
  engine_.run_until(cfg_.warmup + cfg_.measure);
  return collect();
}

RunReport Cluster::run_sharded() {
  prewarm();
  connect_all(nullptr);
  // Exactly one of the fleet vectors is populated (TPC-C terminals or YCSB
  // open-loop clients); both index hosts the same way as fleet_gates_.
  const std::size_t fleet_hosts = std::max(fleets_.size(), ycsb_fleets_.size());
  for (std::size_t h = 0; h < fleet_hosts; ++h) {
    const int d = dom_.client[h];
    sim::Engine& eng = domain_engine(d);
    sim::DomainScope scope(eng, static_cast<std::uint32_t>(d));
    // Release the fleet at a fixed simulated time (handshakes finish within
    // a few scaled RTTs; a quarter warmup is orders of magnitude beyond).
    sim::Gate* gate = fleet_gates_[h].get();
    eng.after(0.25 * cfg_.warmup, [gate] { gate->open(); });
    if (h < fleets_.size()) fleets_[h]->start();
    if (h < ycsb_fleets_.size()) ycsb_fleets_[h]->start();
  }
  for (int i = 0; i < cfg_.nodes; ++i) {
    const int d = server_domain(i);
    sim::DomainScope scope(domain_engine(d), static_cast<std::uint32_t>(d));
    version_gc_loop_node(i);
  }
  for (std::size_t c = 0; c < ftp_clients_.size(); ++c) {
    const int d = dom_.extra_client[c];
    sim::DomainScope scope(domain_engine(d), static_cast<std::uint32_t>(d));
    ftp_clients_[c]->start();
  }
  if (injector_) injector_->arm();

  shards_->advance_all_to(cfg_.warmup);
  reset_all_stats();
  shards_->advance_all_to(cfg_.warmup + cfg_.measure);
  return collect();
}

RunReport Cluster::collect() {
  RunReport r = summarize(cfg_, registry_.snapshot(sim_now()));
  r.shard_count = shards_ != nullptr ? shards_->shards() : 0;
  return r;
}

}  // namespace dclue::core
