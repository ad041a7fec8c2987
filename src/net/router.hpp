#pragma once

/// \file router.hpp
/// Store-and-forward router modeled after the OPNET "3M Gigabit" device the
/// paper uses: a shared forwarding engine with a finite packet rate feeding
/// per-port output queues. Fig 8 reproduces the saturation that appears when
/// the forwarding rate is cut from 10000 to 4000 packets/sec.

#include <string>
#include <vector>

#include "net/link.hpp"
#include "net/packet.hpp"
#include "sim/engine.hpp"
#include "sim/ring.hpp"
#include "sim/obs/stats.hpp"

namespace dclue::net {

/// Input-backlog depth (packets) at which a pps-bound forwarding engine CE-
/// marks lossless-class frames. Kept small, DCQCN-style: every queued packet
/// is a full service interval of delay, so the target operating point is a
/// near-empty engine queue.
inline constexpr std::size_t kRdmaEcnMarkPackets = 16;

struct RouterParams {
  /// Shared forwarding engine packet rate. The paper's "10000 packets/sec" is
  /// the 100x-scaled figure; this default is the corresponding unscaled rate
  /// (cluster configs divide by the scale factor).
  double forwarding_rate_pps = 1'000'000.0;
  std::size_t input_queue_packets = 2'000;
};

class Router : public PacketSink {
 public:
  Router(sim::Engine& engine, std::string name, RouterParams params = {})
      : engine_(engine),
        name_(std::move(name)),
        params_(params),
        service_interval_(1.0 / params.forwarding_rate_pps) {}

  /// Attach an output link (one per port) and the addresses routed to it.
  /// Addresses are small sequential integers, so the table is a flat vector
  /// indexed by address — one bounds check per forwarded packet, no hashing.
  void add_route(Address dst, Link* out) {
    if (routes_.size() <= static_cast<std::size_t>(dst)) {
      routes_.resize(static_cast<std::size_t>(dst) + 1, nullptr);
    }
    routes_[static_cast<std::size_t>(dst)] = out;
  }
  void set_default_route(Link* out) { default_route_ = out; }

  void deliver(Packet pkt) override;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const obs::Counter& forwarded() const { return forwarded_; }
  [[nodiscard]] const obs::Counter& input_drops() const { return input_drops_; }
  [[nodiscard]] const obs::Tally& forwarding_delay() const { return fwd_delay_; }
  void reset_stats(sim::Time now) {
    forwarded_.reset();
    input_drops_.reset();
    fwd_delay_.reset();
    busy_.reset(now);
  }

  /// Bind the router's collectors under \p prefix ("router.<name>.").
  void register_metrics(obs::MetricsRegistry& reg, const std::string& prefix) {
    reg.bind(prefix + "forwarded", &forwarded_);
    reg.bind(prefix + "input_drops", &input_drops_);
    reg.bind(prefix + "forwarding_delay", &fwd_delay_);
    reg.bind(prefix + "engine_busy", &busy_);
  }

 private:
  void service_next();

  sim::Engine& engine_;
  std::string name_;
  RouterParams params_;
  sim::Duration service_interval_;  ///< 1 / forwarding rate, fixed at build
  std::vector<Link*> routes_;
  Link* default_route_ = nullptr;
  sim::Ring<Packet> input_q_;
  bool serving_ = false;
  obs::Counter forwarded_;
  obs::Counter input_drops_;
  obs::Tally fwd_delay_;
  obs::TimeWeightedAvg busy_;
};

}  // namespace dclue::net
