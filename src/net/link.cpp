#include "net/link.hpp"

#include <cassert>

namespace dclue::net {

void Link::deliver(Packet pkt) {
  if (faulted_) {
    if (down_) {
      ++fault_drops_;
      return;
    }
    if (drop_rate_ > 0.0 && fault_rng_->chance(drop_rate_)) {
      ++fault_drops_;
      return;
    }
    if (corrupt_rate_ > 0.0 && fault_rng_->chance(corrupt_rate_)) {
      pkt.corrupt = true;
      ++fault_corrupts_;
    }
  }
  if (!queue_.enqueue(std::move(pkt), engine_.now())) return;  // tail drop
  if (!transmitting_) start_transmission();
}

void Link::start_transmission() {
  auto pkt = queue_.dequeue(engine_.now());
  if (!pkt) {
    transmitting_ = false;
    busy_.record(engine_.now(), 0.0);
    return;
  }
  transmitting_ = true;
  busy_.record(engine_.now(), 1.0);
  const sim::Duration tx = sim::transmission_time(pkt->bytes, rate_);
  bytes_sent_.record(static_cast<std::uint64_t>(pkt->bytes));
  // Delivery happens after serialization plus propagation; the transmitter
  // frees up after serialization alone. A degraded link stretches delivery
  // (never serialization), so jitter can reorder packets in flight exactly
  // like a real path change would.
  sim::Duration delivery = tx + propagation_;
  if (faulted_) {
    delivery += extra_latency_;
    if (jitter_ > 0.0) delivery += fault_rng_->uniform(0.0, jitter_);
  }
  if (cross_domain_ >= 0) {
    // Shard boundary: the arrival event belongs to the sink's domain. The
    // sink pointer is captured (not `this`) so the envelope is self-contained.
    engine_.post_to_domain(
        static_cast<std::uint32_t>(cross_domain_), engine_.now() + delivery,
        [sink = sink_, p = *pkt]() mutable {
          if (sink) sink->deliver(std::move(p));
        });
  } else {
    engine_.after(delivery, [this, p = *pkt]() mutable {
      if (sink_) sink_->deliver(std::move(p));
    });
  }
  engine_.after(tx, [this] { start_transmission(); });
}

}  // namespace dclue::net
