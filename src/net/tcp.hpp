#pragma once

/// \file tcp.hpp
/// Segment-level TCP for the unified fabric. Matches the paper's setup: Reno
/// congestion control with fast retransmit/recovery, selective
/// retransmission (the receiver tracks exact holes, so only missing bytes are
/// resent — the behavioural effect of SACK), ECN, 64 KB receive windows, and
/// timer values reduced 100x "to make them suitable for data center
/// operation". Protocol processing costs are charged to the host CPU through
/// a pluggable cost model, which is how HW-offloaded and SW ("kernel") TCP
/// are compared in Fig 11.

#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "net/nic.hpp"
#include "net/packet.hpp"
#include "net/transport.hpp"
#include "sim/engine.hpp"
#include "sim/small_vec.hpp"
#include "sim/obs/registry.hpp"
#include "sim/obs/stats.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace dclue::cpu {
class Processor;
}  // namespace dclue::cpu

namespace dclue::net {

struct TcpParams {
  sim::Bytes mss = 1460;
  sim::Bytes rwnd = sim::kilobytes(64);
  int initial_cwnd_segments = 2;
  /// Data-center timer reduction (the paper divides standard values by 100),
  /// multiplied by the platform slow-down factor when the 100x methodology is
  /// in use.
  double timer_scale = 0.01;
  sim::Duration base_min_rto = 0.2;       ///< pre-scale (RFC value 200 ms floor)
  sim::Duration base_initial_rto = 1.0;   ///< pre-scale
  sim::Duration base_max_rto = 60.0;      ///< pre-scale
  sim::Duration base_delayed_ack = 0.04;  ///< pre-scale
  /// The paper artificially bumps the retransmission limit "to rather high
  /// values" so stressed IPC connections back off instead of resetting.
  int max_retransmits = 64;

  [[nodiscard]] sim::Duration min_rto() const { return base_min_rto * timer_scale; }
  [[nodiscard]] sim::Duration initial_rto() const { return base_initial_rto * timer_scale; }
  [[nodiscard]] sim::Duration max_rto() const { return base_max_rto * timer_scale; }
  [[nodiscard]] sim::Duration delayed_ack() const { return base_delayed_ack * timer_scale; }
};

/// Per-operation CPU path lengths for protocol processing. Values follow the
/// relative costs in the paper's offload references: kernel TCP pays a large
/// per-segment path plus one copy on send and two on receive; offloaded TCP
/// pays a small doorbell/completion path and moves data by DMA.
struct TcpCostModel {
  sim::PathLength per_segment_tx = 0.0;
  sim::PathLength per_segment_rx = 0.0;
  double per_byte_tx = 0.0;  ///< instructions per payload byte (copies)
  double per_byte_rx = 0.0;
  sim::PathLength connection_setup = 0.0;

  /// Offloaded fast path: doorbell + completion handling, zero-copy DMA.
  static TcpCostModel hardware() { return {500.0, 700.0, 0.0, 0.0, 3'000.0}; }
  /// Kernel ("SW") TCP on a P4-class core: interrupt + stack traversal +
  /// socket work runs tens of thousands of instructions per segment, plus
  /// one copy on send and two on receive (the paper's assumption).
  static TcpCostModel software() {
    return {12'000.0, 18'000.0, 0.5, 1.0, 40'000.0};
  }
};

class TcpStack;

/// One TCP connection endpoint: the paper's wire protocol over the shared
/// Endpoint machine (segmenting, Reno windows with ECN, selective
/// retransmission, delayed acks and CPU charging).
class TcpConnection final : public Endpoint {
 public:
  /// The delayed-ack timer captures a raw `this`, like the retry timer.
  ~TcpConnection() override { delack_timer_.cancel(); }

  void send(sim::Bytes n) override;
  /// Half-close: a FIN follows the last queued byte.
  void close() override;

  /// Awaitable: opens when every byte queued so far has been cumulatively
  /// acknowledged (used by request/response protocols for backpressure).
  sim::Task<void> wait_all_acked();

  /// Out-of-order runs currently buffered by reassembly. Must drain back to
  /// zero once the stream is contiguous (loss-fuzz leak check).
  [[nodiscard]] std::size_t ooo_ranges() const { return ooo_.size(); }

 private:
  friend class TcpStack;
  TcpConnection(TcpStack& stack, std::uint64_t id, Address peer, Dscp dscp,
                std::uint16_t port, Listener* listener);

  [[nodiscard]] TcpStack& stack() const;
  [[nodiscard]] std::shared_ptr<TcpConnection> self() {
    return std::static_pointer_cast<TcpConnection>(shared_from_this());
  }

  void start_handshake();
  void process_segment(const TcpSegment& seg);
  void process_ack(const TcpSegment& seg);
  void process_payload(const TcpSegment& seg);
  void transmit_pump_kick();
  sim::DetachedTask transmit_pump();
  void send_segment(std::int64_t seq, sim::Bytes len, bool fin);
  void send_control(bool syn, bool ack, bool fin = false);
  void send_ack_now();
  void maybe_delayed_ack();
  void arm_rto();
  void on_rto();
  void enter_fast_recovery();
  void retransmit_at(std::int64_t seq);
  void on_new_ack(std::int64_t acked_to);
  void do_reset();
  void maybe_finish_close();
  [[nodiscard]] sim::Bytes effective_window() const;

  // --- sender ---------------------------------------------------------------
  double cwnd_ = 0.0;
  double ssthresh_ = 0.0;
  int dupacks_ = 0;
  bool in_recovery_ = false;
  std::int64_t recover_ = 0;
  bool cwr_pending_ = false;      ///< must advertise CWR on next data segment
  std::int64_t ecn_reduce_until_ = 0;
  sim::Duration rto_;
  /// A coroutine parked in wait_all_acked(): resumed (deferred through the
  /// engine, like Gate) once snd_una_ reaches target. Value storage — the
  /// per-waiter Gate heap allocation this replaces showed up on every
  /// request/response exchange.
  struct AckWaiter {
    std::int64_t target;
    std::coroutine_handle<> handle;
  };

  sim::Signal tx_signal_;
  bool pump_running_ = false;
  sim::SmallVec<AckWaiter, 4> ack_waiters_;

  // --- receiver ---------------------------------------------------------------
  /// One out-of-order hole-bounded run of received bytes: [start, end).
  struct SeqRange {
    std::int64_t start;
    std::int64_t end;
  };

  /// Out-of-order runs, sorted by start, disjoint and non-adjacent. Inline
  /// small-vector: reassembly rarely tracks more than a few holes (was a
  /// std::map — one heap node per hole on the loss path).
  sim::SmallVec<SeqRange, 8> ooo_;
  int unacked_segments_ = 0;
  sim::EventHandle delack_timer_;
  bool ecn_echo_ = false;
};

/// Per-host TCP instance: demultiplexes packets into its endpoint table and
/// charges protocol CPU costs to the host's processor \p cpu (null on a host
/// whose CPU is not modeled).
class TcpStack final : public Transport {
 public:
  TcpStack(sim::Engine& engine, Nic& nic, TcpParams params, TcpCostModel costs,
           cpu::Processor* cpu);

  std::shared_ptr<Endpoint> connect(Address dst, std::uint16_t port,
                                    Dscp dscp = Dscp::kBestEffort) override;

  [[nodiscard]] const TcpParams& params() const { return params_; }
  [[nodiscard]] const TcpCostModel& costs() const { return costs_; }
  [[nodiscard]] Address address() const { return nic_.address(); }

  /// --- metrics -----------------------------------------------------------
  [[nodiscard]] std::uint64_t segments_sent() const { return segments_sent_.count(); }
  [[nodiscard]] std::uint64_t segments_received() const {
    return segments_received_.count();
  }
  [[nodiscard]] std::uint64_t total_retransmits() const { return retransmits_.count(); }
  [[nodiscard]] std::uint64_t rto_fires() const { return rto_fires_.count(); }

  /// Bind the stack's collectors under \p prefix ("node0.tcp.").
  void register_metrics(obs::MetricsRegistry& reg, const std::string& prefix);

 private:
  friend class TcpConnection;
  /// Charge the receive cost, then demultiplex and drive the connection.
  sim::DetachedTask rx_process(Packet pkt);
  /// Passive open for an unmatched SYN (charges connection setup).
  void accept_syn(const Packet& pkt);
  void emit(TcpConnection& conn, TcpSegment seg, sim::Bytes payload_len);

  Nic& nic_;
  TcpParams params_;
  TcpCostModel costs_;
  cpu::Processor* cpu_;
  obs::Counter segments_sent_;
  obs::Counter segments_received_;
  obs::Counter retransmits_;
  obs::Counter rto_fires_;
};

inline TcpStack& TcpConnection::stack() const {
  return static_cast<TcpStack&>(transport());
}

}  // namespace dclue::net
