#pragma once

/// \file link.hpp
/// Point-to-point Ethernet link: an output queue feeding a serializing
/// transmitter with propagation delay. Full duplex is modeled as two
/// independent Links. Latency-impact experiments (Figs 12-13) adjust
/// propagation delay exactly as the paper adjusts link lengths.

#include <string>

#include "net/packet.hpp"
#include "net/qos.hpp"
#include "sim/engine.hpp"
#include "sim/obs/stats.hpp"
#include "sim/rng.hpp"

namespace dclue::net {

class Link : public PacketSink {
 public:
  Link(sim::Engine& engine, std::string name, sim::BitRate rate,
       sim::Duration propagation, QosParams qos = {})
      : engine_(engine),
        name_(std::move(name)),
        rate_(rate),
        propagation_(propagation),
        queue_(qos) {}

  void connect(PacketSink* sink) { sink_ = sink; }

  /// Sharded runs: mark this link as a shard boundary — its sink lives in
  /// \p target_domain, so deliveries are posted through the engine's
  /// cross-domain router instead of scheduled locally. The link's propagation
  /// is the boundary's conservative lookahead (delivery delay is always
  /// >= serialization + propagation; degradation only adds latency).
  void set_cross_domain(std::uint32_t target_domain) {
    cross_domain_ = static_cast<std::int32_t>(target_domain);
  }

  /// Enqueue for transmission (tail-drop under QoS limits).
  void deliver(Packet pkt) override;

  [[nodiscard]] sim::Duration propagation() const { return propagation_; }
  [[nodiscard]] sim::BitRate rate() const { return rate_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// --- fault injection ---------------------------------------------------
  /// All hooks are gated on one boolean so the clean path costs a single
  /// predictable branch; no RNG is owned or drawn unless a fault is active.
  void set_link_down(bool down) {
    down_ = down;
    refresh_faulted();
  }
  /// Steady degradation: per-packet drop/corrupt probabilities and added
  /// one-way latency with uniform [0, jitter) spread, drawn from \p rng.
  void set_degradation(double drop_rate, double corrupt_rate,
                       sim::Duration extra_latency, sim::Duration jitter,
                       sim::Rng* rng) {
    drop_rate_ = drop_rate;
    corrupt_rate_ = corrupt_rate;
    extra_latency_ = extra_latency;
    jitter_ = jitter;
    fault_rng_ = rng;
    refresh_faulted();
  }
  void clear_degradation() { set_degradation(0.0, 0.0, 0.0, 0.0, nullptr); }
  [[nodiscard]] std::uint64_t fault_drops() const { return fault_drops_; }
  [[nodiscard]] std::uint64_t fault_corrupts() const { return fault_corrupts_; }

  /// --- metrics -----------------------------------------------------------
  [[nodiscard]] double utilization(sim::Time now) const {
    return busy_.average(now);
  }
  [[nodiscard]] const OutputQueue& queue() const { return queue_; }
  [[nodiscard]] OutputQueue& queue() { return queue_; }
  void reset_stats(sim::Time now) {
    busy_.reset(now);
    bytes_sent_.reset();
    queue_.reset_stats(now);
  }

  /// Bind the link's collectors under \p prefix ("link.<name>.").
  void register_metrics(obs::MetricsRegistry& reg, const std::string& prefix) {
    reg.bind(prefix + "busy", &busy_);
    reg.bind(prefix + "bytes_sent", &bytes_sent_);
    queue_.register_metrics(reg, prefix + "queue.");
  }

 private:
  void start_transmission();

  void refresh_faulted() {
    faulted_ = down_ || drop_rate_ > 0.0 || corrupt_rate_ > 0.0 ||
               extra_latency_ > 0.0 || jitter_ > 0.0;
  }

  sim::Engine& engine_;
  std::string name_;
  sim::BitRate rate_;
  sim::Duration propagation_;
  OutputQueue queue_;
  PacketSink* sink_ = nullptr;
  bool transmitting_ = false;
  obs::TimeWeightedAvg busy_;
  obs::Counter bytes_sent_;
  /// Fault state (see set_link_down / set_degradation). faulted_ is the
  /// single gate the hot path tests; it is true iff any knob is active.
  bool faulted_ = false;
  bool down_ = false;
  double drop_rate_ = 0.0;
  double corrupt_rate_ = 0.0;
  sim::Duration extra_latency_ = 0.0;
  sim::Duration jitter_ = 0.0;
  sim::Rng* fault_rng_ = nullptr;  ///< owned by the injector, not the link
  std::uint64_t fault_drops_ = 0;
  std::uint64_t fault_corrupts_ = 0;
  std::int32_t cross_domain_ = -1;  ///< sink's domain when a shard boundary
};

}  // namespace dclue::net
