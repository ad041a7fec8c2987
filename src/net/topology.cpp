#include "net/topology.hpp"

#include <stdexcept>
#include <string>

#include "sim/shard.hpp"

namespace dclue::net {

sim::Engine& Topology::domain_engine(int domain) {
  return shards_ != nullptr ? shards_->engine_of_domain(domain) : engine_;
}

void Topology::bind_link_domains(Link& link, int src_domain, int dst_domain) {
  if (shards_ == nullptr || src_domain == dst_domain) return;
  // Always route cross-domain deliveries through the shard router, even when
  // both domains share a shard: the arrival event's ordering key must carry
  // tgt = sink's domain for results to be shard-count invariant. The router
  // injects directly when the pair is intra-shard; add_lookahead ignores it.
  link.set_cross_domain(static_cast<std::uint32_t>(dst_domain));
  shards_->add_lookahead(src_domain, dst_domain, link.propagation());
}

Topology::Topology(sim::Engine& engine, const TopologyParams& params,
                   const TopologyDomains* domains)
    : engine_(engine), params_(params) {
  TopologyDomains flat;  // legacy: everything in domain 0 on `engine`
  if (domains == nullptr) {
    flat.lata.assign(params_.latas, 0);
    flat.server.assign(params_.latas * params_.servers_per_lata, 0);
    flat.client.assign(params_.client_hosts, 0);
    flat.extra_client.assign(params_.extra_client_hosts, 0);
    flat.extra_server.assign(params_.latas * params_.extra_servers_per_lata, 0);
    domains = &flat;
  } else {
    shards_ = domains->shards;
    if (static_cast<int>(domains->lata.size()) != params_.latas ||
        static_cast<int>(domains->server.size()) !=
            params_.latas * params_.servers_per_lata ||
        static_cast<int>(domains->client.size()) != params_.client_hosts ||
        static_cast<int>(domains->extra_client.size()) !=
            params_.extra_client_hosts ||
        static_cast<int>(domains->extra_server.size()) !=
            params_.latas * params_.extra_servers_per_lata) {
      throw std::invalid_argument("TopologyDomains sizes do not match params");
    }
  }

  outer_router_ = std::make_unique<Router>(domain_engine(domains->outer),
                                           "outer", params_.outer_router);

  for (int lata = 0; lata < params_.latas; ++lata) {
    const int lata_dom = domains->lata[lata];
    auto inner = std::make_unique<Router>(
        domain_engine(lata_dom), "inner" + std::to_string(lata),
        params_.inner_router);

    // Inter-LATA duplex pair; each direction carries half the extra latency.
    const sim::Duration prop =
        params_.inter_lata_prop + params_.extra_inter_lata_latency / 2.0;
    auto up = std::make_unique<Link>(domain_engine(lata_dom),
                                     "lata" + std::to_string(lata) + "-up",
                                     params_.inter_lata_rate, prop, params_.qos);
    auto down = std::make_unique<Link>(
        domain_engine(domains->outer), "lata" + std::to_string(lata) + "-down",
        params_.inter_lata_rate, prop, params_.qos);
    up->connect(outer_router_.get());
    down->connect(inner.get());
    bind_link_domains(*up, lata_dom, domains->outer);
    bind_link_domains(*down, domains->outer, lata_dom);
    inner->set_default_route(up.get());
    lata_uplinks_.push_back(up.get());
    lata_downlinks_.push_back(down.get());
    links_.push_back(std::move(up));
    links_.push_back(std::move(down));
    inner_routers_.push_back(std::move(inner));
  }

  for (int lata = 0; lata < params_.latas; ++lata) {
    for (int s = 0; s < params_.servers_per_lata; ++s) {
      const int global = lata * params_.servers_per_lata + s;
      const Attached host =
          attach_host(*inner_routers_[lata], "srv", lata * 100 + s,
                      /*register_on_outer=*/true, domains->server[global],
                      domains->lata[lata]);
      server_nics_.push_back(host.nic);
      server_uplinks_.push_back(host.up);
      server_downlinks_.push_back(host.down);
    }
    for (int s = 0; s < params_.extra_servers_per_lata; ++s) {
      const int global = lata * params_.extra_servers_per_lata + s;
      extra_server_nics_.push_back(
          attach_host(*inner_routers_[lata], "xsrv", lata * 100 + s,
                      /*register_on_outer=*/true,
                      domains->extra_server[global], domains->lata[lata])
              .nic);
    }
  }
  for (int c = 0; c < params_.client_hosts; ++c) {
    client_nics_.push_back(attach_host(*outer_router_, "cli", c, false,
                                       domains->client[c], domains->outer)
                               .nic);
  }
  for (int c = 0; c < params_.extra_client_hosts; ++c) {
    extra_client_nics_.push_back(
        attach_host(*outer_router_, "xcli", c, false,
                    domains->extra_client[c], domains->outer)
            .nic);
  }
}

Topology::Attached Topology::attach_host(Router& router,
                                         const char* name_prefix, int index,
                                         bool register_on_outer,
                                         int host_domain, int router_domain) {
  const Address addr = next_address_++;
  const std::string base = std::string(name_prefix) + std::to_string(index);
  auto up = std::make_unique<Link>(domain_engine(host_domain), base + "-up",
                                   params_.host_link_rate,
                                   params_.host_link_prop, params_.qos);
  auto down = std::make_unique<Link>(domain_engine(router_domain),
                                     base + "-down", params_.host_link_rate,
                                     params_.host_link_prop, params_.qos);
  auto nic = std::make_unique<Nic>(addr, up.get());
  up->connect(&router);
  down->connect(nic.get());
  bind_link_domains(*up, host_domain, router_domain);
  bind_link_domains(*down, router_domain, host_domain);
  router.add_route(addr, down.get());
  if (register_on_outer) {
    // The outer router reaches this host through its LATA's down link.
    for (int lata = 0; lata < params_.latas; ++lata) {
      if (inner_routers_[lata].get() == &router) {
        outer_router_->add_route(addr, lata_downlinks_[lata]);
      }
    }
  }
  const Attached attached{nic.get(), up.get(), down.get()};
  links_.push_back(std::move(up));
  links_.push_back(std::move(down));
  nics_.push_back(std::move(nic));
  return attached;
}

std::uint64_t Topology::total_drops() const {
  std::uint64_t total = 0;
  for (const auto& link : links_) total += link->queue().drops().count();
  total += outer_router_->input_drops().count();
  for (const auto& r : inner_routers_) total += r->input_drops().count();
  return total;
}

void Topology::reset_stats() {
  const sim::Time now = engine_.now();
  for (auto& link : links_) link->reset_stats(now);
  outer_router_->reset_stats(now);
  for (auto& r : inner_routers_) r->reset_stats(now);
}

void Topology::register_metrics(obs::MetricsRegistry& reg) {
  // The fabric-wide probes: routers and the inter-LATA trunks get named
  // entries; the many per-host access links stay internal (their drops are
  // visible through fabric.total_drops) and keep their window in sync
  // through the registry's reset hook.
  reg.on_reset([this](sim::Time) { reset_stats(); });
  reg.gauge_fn("fabric.total_drops",
               [this] { return static_cast<double>(total_drops()); });
  outer_router_->register_metrics(reg,
                                  "fabric.router." + outer_router_->name() + ".");
  for (auto& r : inner_routers_) {
    r->register_metrics(reg, "fabric.router." + r->name() + ".");
  }
  for (std::size_t lata = 0; lata < lata_uplinks_.size(); ++lata) {
    lata_uplinks_[lata]->register_metrics(
        reg, "fabric.link." + lata_uplinks_[lata]->name() + ".");
    lata_downlinks_[lata]->register_metrics(
        reg, "fabric.link." + lata_downlinks_[lata]->name() + ".");
  }
}

}  // namespace dclue::net
