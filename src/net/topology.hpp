#pragma once

/// \file topology.hpp
/// Builds the paper's Fig-1 network: one or more LATAs (sub-clusters), each
/// with an inner router connecting its server nodes, an outer router joining
/// the LATAs, and client hosts (plus optional cross-traffic "extra" hosts)
/// homed at the outer router. Latency experiments adjust the inter-LATA link
/// propagation ("each of the two inter-lata links includes one-half of the
/// additional latency").

#include <memory>
#include <vector>

#include "net/link.hpp"
#include "net/nic.hpp"
#include "net/router.hpp"

namespace dclue::sim {
class ShardSet;
}  // namespace dclue::sim

namespace dclue::net {

/// Domain assignment for a sharded run (sim/shard.hpp): every fabric element
/// is owned by one domain; links whose endpoints land in different domains
/// become shard boundaries (cross-domain delivery + lookahead registration).
/// When `shards` is null the topology builds exactly as before on the single
/// engine passed to the constructor.
struct TopologyDomains {
  sim::ShardSet* shards = nullptr;
  int outer = 0;                   ///< outer router + inter-LATA trunks
  std::vector<int> lata;           ///< inner router per LATA
  std::vector<int> server;         ///< per global server index
  std::vector<int> client;         ///< per client host
  std::vector<int> extra_client;   ///< cross-traffic sources
  std::vector<int> extra_server;   ///< cross-traffic sinks (per global index)
};

struct TopologyParams {
  int latas = 1;
  int servers_per_lata = 4;
  int client_hosts = 1;         ///< TPC-C client emulators at the outer router
  int extra_client_hosts = 0;   ///< cross-traffic sources at the outer router
  int extra_servers_per_lata = 0;  ///< cross-traffic sinks inside LATAs

  sim::BitRate host_link_rate = sim::gbps(1);
  sim::Duration host_link_prop = sim::microseconds(5);
  sim::BitRate inter_lata_rate = sim::gbps(1);
  sim::Duration inter_lata_prop = sim::microseconds(5);
  /// Additional one-way inter-LATA latency (Figs 12-13); split across the two
  /// links of the path through the outer router.
  sim::Duration extra_inter_lata_latency = 0.0;

  RouterParams inner_router;
  RouterParams outer_router;
  QosParams qos;
};

class Topology {
 public:
  Topology(sim::Engine& engine, const TopologyParams& params,
           const TopologyDomains* domains = nullptr);

  [[nodiscard]] int num_servers() const {
    return params_.latas * params_.servers_per_lata;
  }
  [[nodiscard]] int num_clients() const { return params_.client_hosts; }
  [[nodiscard]] int num_extra_clients() const { return params_.extra_client_hosts; }
  [[nodiscard]] int num_extra_servers() const {
    return params_.latas * params_.extra_servers_per_lata;
  }

  [[nodiscard]] Nic& server_nic(int i) { return *server_nics_.at(i); }
  /// A server's access links (host->router and router->host), the hook
  /// points for link-fault injection and test interposers.
  [[nodiscard]] Link& server_uplink(int i) { return *server_uplinks_.at(i); }
  [[nodiscard]] Link& server_downlink(int i) { return *server_downlinks_.at(i); }
  [[nodiscard]] Nic& client_nic(int i) { return *client_nics_.at(i); }
  [[nodiscard]] Nic& extra_client_nic(int i) { return *extra_client_nics_.at(i); }
  [[nodiscard]] Nic& extra_server_nic(int i) { return *extra_server_nics_.at(i); }

  [[nodiscard]] Router& outer_router() { return *outer_router_; }
  [[nodiscard]] Router& inner_router(int lata) { return *inner_routers_.at(lata); }

  /// Which LATA a server index belongs to.
  [[nodiscard]] int lata_of_server(int i) const { return i / params_.servers_per_lata; }

  /// Total tail drops across every queue in the fabric.
  [[nodiscard]] std::uint64_t total_drops() const;

  void reset_stats();

  /// Register the fabric probes (routers, inter-LATA trunks, total drops)
  /// and a reset hook that keeps the unregistered access links' windows in
  /// step with the registry's.
  void register_metrics(obs::MetricsRegistry& reg);

 private:
  /// A host's NIC and its duplex pair (up: host->router, down: router->host).
  struct Attached {
    Nic* nic;
    Link* up;
    Link* down;
  };

  /// Create a host NIC dual-linked to \p router, registering its route.
  /// \p host_domain / \p router_domain place the duplex pair's endpoints for
  /// sharded runs (equal in the legacy single-engine build).
  Attached attach_host(Router& router, const char* name_prefix, int index,
                       bool register_on_outer, int host_domain,
                       int router_domain);

  /// Engine owning \p domain (the single build engine when not sharded).
  [[nodiscard]] sim::Engine& domain_engine(int domain);
  /// Mark \p link as a boundary if its endpoints' domains differ, and
  /// register its propagation as the (src -> dst) lookahead.
  void bind_link_domains(Link& link, int src_domain, int dst_domain);

  sim::Engine& engine_;
  TopologyParams params_;
  sim::ShardSet* shards_ = nullptr;
  Address next_address_ = 1;

  std::unique_ptr<Router> outer_router_;
  std::vector<std::unique_ptr<Router>> inner_routers_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<std::unique_ptr<Nic>> nics_;
  std::vector<Link*> lata_uplinks_;
  std::vector<Link*> lata_downlinks_;
  std::vector<Link*> server_uplinks_;
  std::vector<Link*> server_downlinks_;
  std::vector<Nic*> server_nics_;
  std::vector<Nic*> client_nics_;
  std::vector<Nic*> extra_client_nics_;
  std::vector<Nic*> extra_server_nics_;
};

}  // namespace dclue::net
