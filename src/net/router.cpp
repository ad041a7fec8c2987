#include "net/router.hpp"

namespace dclue::net {

void Router::deliver(Packet pkt) {
  if (pkt.proto == kProtoRdma) {
    // PFC lossless class (see net/qos.hpp): the forwarding engine pauses
    // the upstream port instead of dropping. The engine is pps-bound, so a
    // deep input backlog is *the* congestion signal here — mark CE early so
    // DCQCN throttles the queue pairs before the backlog costs milliseconds.
    if (pkt.seg.len > 0 && input_q_.size() >= kRdmaEcnMarkPackets) {
      pkt.seg.ce = true;
    }
  } else if (input_q_.size() >= params_.input_queue_packets) {
    input_drops_.record();
    return;
  }
  pkt.enqueued_at = engine_.now();
  input_q_.push_back(std::move(pkt));
  if (!serving_) service_next();
}

void Router::service_next() {
  if (input_q_.empty()) {
    serving_ = false;
    busy_.record(engine_.now(), 0.0);
    return;
  }
  serving_ = true;
  busy_.record(engine_.now(), 1.0);
  engine_.after(service_interval_, [this] {
    Packet pkt = std::move(input_q_.front());
    input_q_.pop_front();
    fwd_delay_.record(engine_.now() - pkt.enqueued_at);
    forwarded_.record();
    const auto dst = static_cast<std::size_t>(pkt.dst);
    Link* out = dst < routes_.size() && routes_[dst] ? routes_[dst]
                                                     : default_route_;
    if (out) out->deliver(std::move(pkt));
    service_next();
  });
}

}  // namespace dclue::net
