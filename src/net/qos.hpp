#pragma once

/// \file qos.hpp
/// Output queueing disciplines. The paper's §3.4 study uses the two simplest
/// data-center arrangements — tail-drop FIFO for best effort and strict
/// priority for AF21 — but names the full diff-serv mechanism space
/// ("queuing schemes (priority, WFQ, ...), packet drop schemes (tail drop,
/// WRED, ...), traffic policing/shaping") and calls better arrangements
/// future work. This module implements that space: FIFO / strict-priority /
/// weighted-fair queueing schedulers, tail-drop / WRED droppers with
/// optional ECN marking, and per-class token-bucket policing.

#include <array>
#include <cmath>
#include <optional>

#include "net/packet.hpp"
#include "sim/ring.hpp"
#include "sim/rng.hpp"
#include "sim/obs/registry.hpp"
#include "sim/obs/stats.hpp"

namespace dclue::net {

enum class QueueScheduler {
  kFifo,            ///< one logical FIFO across classes
  kStrictPriority,  ///< higher DSCP always first (OPNET's AF default)
  kWfq,             ///< weighted fair queueing by class weight
};

enum class DropPolicy {
  kTailDrop,  ///< the paper's routers
  kWred,      ///< weighted RED (early random drop / ECN mark)
};

struct TokenBucket {
  double rate_bps = 0.0;  ///< 0 = unpoliced
  sim::Bytes burst_bytes = sim::kilobytes(64);
};

struct QosParams {
  QueueScheduler scheduler = QueueScheduler::kStrictPriority;
  DropPolicy drop = DropPolicy::kTailDrop;

  /// Per-class byte limits; AF21 gets the larger queue per OPNET defaults.
  std::array<sim::Bytes, kNumDscp> queue_limit_bytes = {
      sim::kilobytes(128), sim::kilobytes(256)};
  /// WFQ weights (share of bandwidth under contention).
  std::array<double, kNumDscp> wfq_weight = {1.0, 1.0};
  /// WRED thresholds as fractions of the class queue limit.
  double wred_min_fraction = 0.25;
  double wred_max_fraction = 0.75;
  double wred_max_p = 0.1;
  /// ECN: mark (rather than drop) once a class queue holds this many bytes
  /// (tail-drop mode), or mark instead of early-dropping (WRED mode).
  /// <= 0 disables marking.
  sim::Bytes ecn_mark_threshold_bytes = 0;
  /// Ingress policing per class (leaky bucket); rate 0 = unpoliced.
  std::array<TokenBucket, kNumDscp> police = {};
};

/// A multi-class output queue with pluggable scheduler / dropper / policer.
class OutputQueue {
 public:
  explicit OutputQueue(QosParams params = {})
      : params_(params), wred_rng_(0x9e3779b9) {
    for (std::size_t c = 0; c < kNumDscp; ++c) {
      tokens_[c] = static_cast<double>(params_.police[c].burst_bytes);  // full bucket
      token_time_[c] = 0.0;
    }
  }

  /// Enqueue; returns false (and counts a drop) when rejected.
  bool enqueue(Packet pkt, sim::Time now);

  /// Dequeue the next packet per discipline.
  std::optional<Packet> dequeue(sim::Time now);

  [[nodiscard]] bool empty() const {
    for (const auto& q : queues_) {
      if (!q.empty()) return false;
    }
    return true;
  }
  [[nodiscard]] sim::Bytes queued_bytes() const {
    sim::Bytes total = 0;
    for (auto b : bytes_) total += b;
    for (auto b : lossless_bytes_) total += b;
    return total;
  }
  [[nodiscard]] sim::Bytes queued_bytes(Dscp cls) const {
    return bytes_[static_cast<std::size_t>(cls)] +
           lossless_bytes_[static_cast<std::size_t>(cls)];
  }

  [[nodiscard]] const obs::Counter& drops() const { return drops_; }
  [[nodiscard]] const obs::Counter& policed_drops() const { return policed_; }
  [[nodiscard]] const obs::Counter& ecn_marks() const { return ecn_marks_; }
  [[nodiscard]] const obs::Tally& queue_delay() const { return queue_delay_; }
  void reset_stats(sim::Time now = 0.0) {
    drops_.reset();
    policed_.reset();
    ecn_marks_.reset();
    queue_delay_.reset();
    depth_bytes_.reset(now);
  }

  /// Bind the queue's collectors under \p prefix ("link.<name>.queue.").
  void register_metrics(obs::MetricsRegistry& reg, const std::string& prefix) {
    reg.bind(prefix + "drops", &drops_);
    reg.bind(prefix + "policed_drops", &policed_);
    reg.bind(prefix + "ecn_marks", &ecn_marks_);
    reg.bind(prefix + "delay", &queue_delay_);
    reg.bind(prefix + "depth_bytes", &depth_bytes_);
  }

 private:
  struct Entry {
    Packet pkt;
    double wfq_finish = 0.0;
  };

  [[nodiscard]] int next_class(sim::Time now) const;
  bool police_conforms(std::size_t cls, sim::Bytes bytes, sim::Time now);
  /// WRED verdict: 0 = admit, 1 = mark, 2 = drop.
  int wred_verdict(std::size_t cls, const Packet& pkt);

  QosParams params_;
  /// Ring-buffer FIFOs: packets only ever push_back/pop_front, and a ring
  /// that has reached its working-set depth never allocates again.
  std::array<sim::Ring<Entry>, kNumDscp> queues_;
  std::array<sim::Bytes, kNumDscp> bytes_{};  ///< lossy (tail-drop) occupancy
  /// PFC headroom occupancy (kProtoRdma). Counted toward ECN thresholds and
  /// depth stats but not toward the lossy classes' tail-drop budget.
  std::array<sim::Bytes, kNumDscp> lossless_bytes_{};
  std::array<double, kNumDscp> wfq_last_finish_{};
  double wfq_virtual_ = 0.0;
  std::array<double, kNumDscp> tokens_{};
  std::array<sim::Time, kNumDscp> token_time_{};
  std::array<double, kNumDscp> wred_avg_{};
  obs::Counter drops_;
  obs::Counter policed_;
  obs::Counter ecn_marks_;
  obs::Tally queue_delay_;
  obs::TimeWeightedAvg depth_bytes_;  ///< total queued bytes over time
  sim::Rng wred_rng_;
};

inline bool OutputQueue::police_conforms(std::size_t cls, sim::Bytes bytes,
                                         sim::Time now) {
  const TokenBucket& tb = params_.police[cls];
  if (tb.rate_bps <= 0.0) return true;
  // Refill.
  tokens_[cls] = std::min(
      static_cast<double>(tb.burst_bytes),
      tokens_[cls] + (now - token_time_[cls]) * tb.rate_bps / 8.0);
  token_time_[cls] = now;
  if (tokens_[cls] >= static_cast<double>(bytes)) {
    tokens_[cls] -= static_cast<double>(bytes);
    return true;
  }
  return false;
}

inline int OutputQueue::wred_verdict(std::size_t cls, const Packet& pkt) {
  // EWMA of the class queue depth (classic RED, weight 1/16); lossless
  // headroom occupancy counts toward the congestion estimate too.
  wred_avg_[cls] = wred_avg_[cls] * (15.0 / 16.0) +
                   static_cast<double>(bytes_[cls] + lossless_bytes_[cls]) / 16.0;
  const double limit = static_cast<double>(params_.queue_limit_bytes[cls]);
  const double min_th = params_.wred_min_fraction * limit;
  const double max_th = params_.wred_max_fraction * limit;
  if (wred_avg_[cls] < min_th) return 0;
  if (wred_avg_[cls] >= max_th) return 2;
  const double p =
      params_.wred_max_p * (wred_avg_[cls] - min_th) / (max_th - min_th);
  if (wred_rng_.uniform() >= p) return 0;
  // Early congestion signal: mark ECN-capable data, drop otherwise.
  return (params_.ecn_mark_threshold_bytes > 0 && pkt.seg.len > 0) ? 1 : 2;
}

inline bool OutputQueue::enqueue(Packet pkt, sim::Time now) {
  const auto cls = static_cast<std::size_t>(pkt.dscp);
  // PFC lossless service for the RDMA class: a RoCE fabric runs priority
  // flow control, so a congested queue backpressures into upstream buffers
  // instead of tail-dropping. Lossless bytes live in the switch's reserved
  // PFC headroom pool (lossless_bytes_), separate from the shared lossy
  // budget — so a burst of RDMA frames neither drops nor crowds TCP out of
  // its tail-drop allowance (the victim-flow effect). DCQCN (the early CE
  // marks below) is what keeps the headroom occupancy bounded. Frame loss
  // still reaches the RDMA stack through fault-injected link
  // loss/corruption, which acts below L2.
  const bool lossless = pkt.proto == kProtoRdma;
  if (!police_conforms(cls, pkt.bytes, now)) {
    policed_.record();
    drops_.record();
    return false;
  }
  if (!lossless && bytes_[cls] + pkt.bytes > params_.queue_limit_bytes[cls]) {
    drops_.record();
    return false;
  }
  if (params_.drop == DropPolicy::kWred) {
    switch (wred_verdict(cls, pkt)) {
      case 1:
        pkt.seg.ce = true;
        ecn_marks_.record();
        break;
      case 2:
        if (lossless) {  // PFC: WRED may mark the lossless class, not drop it
          pkt.seg.ce = true;
          ecn_marks_.record();
          break;
        }
        drops_.record();
        return false;
      default:
        break;
    }
  } else if (params_.ecn_mark_threshold_bytes > 0 && pkt.seg.len > 0 &&
             bytes_[cls] + lossless_bytes_[cls] >=
                 params_.ecn_mark_threshold_bytes) {
    pkt.seg.ce = true;
    ecn_marks_.record();
  }

  pkt.enqueued_at = now;
  double finish = 0.0;
  if (params_.scheduler == QueueScheduler::kWfq) {
    const double start = std::max(wfq_virtual_, wfq_last_finish_[cls]);
    finish = start + static_cast<double>(pkt.bytes) /
                         std::max(params_.wfq_weight[cls], 1e-9);
    wfq_last_finish_[cls] = finish;
  }
  (lossless ? lossless_bytes_[cls] : bytes_[cls]) += pkt.bytes;
  depth_bytes_.record(now, static_cast<double>(queued_bytes()));
  queues_[cls].emplace_back(std::move(pkt), finish);
  return true;
}

inline int OutputQueue::next_class(sim::Time /*now*/) const {
  switch (params_.scheduler) {
    case QueueScheduler::kStrictPriority:
      for (int c = kNumDscp - 1; c >= 0; --c) {
        if (!queues_[static_cast<std::size_t>(c)].empty()) return c;
      }
      return -1;
    case QueueScheduler::kWfq: {
      int best = -1;
      double best_finish = 0.0;
      for (int c = 0; c < kNumDscp; ++c) {
        const auto& q = queues_[static_cast<std::size_t>(c)];
        if (!q.empty() && (best < 0 || q.front().wfq_finish < best_finish)) {
          best = c;
          best_finish = q.front().wfq_finish;
        }
      }
      return best;
    }
    case QueueScheduler::kFifo:
    default: {
      int best = -1;
      sim::Time best_t = 0.0;
      for (int c = 0; c < kNumDscp; ++c) {
        const auto& q = queues_[static_cast<std::size_t>(c)];
        if (!q.empty() && (best < 0 || q.front().pkt.enqueued_at < best_t)) {
          best = c;
          best_t = q.front().pkt.enqueued_at;
        }
      }
      return best;
    }
  }
}

inline std::optional<Packet> OutputQueue::dequeue(sim::Time now) {
  int cls = next_class(now);
  if (cls < 0) return std::nullopt;
  auto& q = queues_[static_cast<std::size_t>(cls)];
  Entry& entry = q.front();  // move the packet straight out of the ring slot
  (entry.pkt.proto == kProtoRdma ? lossless_bytes_ : bytes_)
      [static_cast<std::size_t>(cls)] -= entry.pkt.bytes;
  depth_bytes_.record(now, static_cast<double>(queued_bytes()));
  if (params_.scheduler == QueueScheduler::kWfq) {
    wfq_virtual_ = std::max(wfq_virtual_, entry.wfq_finish);
  }
  queue_delay_.record(now - entry.pkt.enqueued_at);
  std::optional<Packet> out(std::move(entry.pkt));
  q.pop_front();
  return out;
}

}  // namespace dclue::net
