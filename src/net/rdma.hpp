#pragma once

/// \file rdma.hpp
/// Kernel-bypass RDMA transport model (eRPC/RoCE-style reliable connection).
/// The counterfactual to the paper's unified-Ethernet TCP fabric: what do the
/// scalability curves look like on a modern fabric where the host CPU is out
/// of the datapath?
///
/// Model, and how it differs from TCP on purpose:
///   - Zero per-frame CPU path length. The NIC segments, delivers, and acks
///     entirely in hardware; no interrupt, stack traversal, or copy is ever
///     charged to a host core. End-to-end latency is the wire latency alone
///     (microseconds on the simulated fabric) with no kernel inflation.
///   - Credit-based flow control instead of cwnd dynamics. The receiver
///     grants a fixed window of `credits` MTU frames; the sender never
///     slow-starts. Loss recovery is go-back-N from the first unacked frame
///     (RoCE RC semantics: the responder NAKs a PSN sequence error and the
///     requester rewinds), driven by a retry timer whose floor is the
///     configured hardware interval and whose estimate adapts to observed
///     round trips (Jacobson/Karn) — on a lossless fabric congestion is
///     *delay*, and a fixed timer would mistake every standing queue for
///     loss.
///   - DCQCN-inspired congestion control with an IRN-style in-flight cap.
///     Each queue pair paces its injection at a current rate AND bounds its
///     outstanding frames; a congestion signal halves both, clean cumulative
///     acks recover both additively. The primary signal is ECN: an
///     RDMA-fabric cluster run enables early CE marking on every fabric
///     queue (core/cluster.cpp — RoCE deployment guides mandate an
///     ECN-enabled fabric), the receiver echoes marks as a CNP on its next
///     ack, and the sender decreases at most once per outstanding window.
///     Loss (NAK or retry-timer) is the backup signal. Without this, fixed
///     256 KB windows colliding on shared router queues produce exactly the
///     go-back-N storms the early RoCE literature documents. Note what this
///     is *not*: there is no slow-start coupling message latency to transfer
///     progress, and a clean fabric never sees a rate reduction.
///   - Zero steady-state allocations. The whole datapath — transmit pump,
///     frame demux, ack processing — is plain function calls; no coroutine
///     frame is ever created per frame or per message (checked by
///     ZeroAlloc.MsgChannelStreamSteadyState, tests/alloc).
///
/// What is shared with TCP: frames ride the same links, router queues, QoS
/// schedulers, and fault hooks (Packet::proto == kProtoRdma is demuxed only
/// at the receiving NIC), and the connection machine is the one both stacks
/// inherit from net::Endpoint and net::Transport (net/transport.hpp): the
/// SYN/SYN|ACK/ACK-style handshake, the close marker consuming a sequence
/// slot, the retry timer's backoff and RTT estimate, in-order delivery, the
/// endpoint table and the engine's connection-id counter. So a configured
/// run differs from its TCP twin *only* in wire protocol, which is exactly
/// the comparison EXPERIMENTS.md makes.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "net/nic.hpp"
#include "net/packet.hpp"
#include "net/transport.hpp"
#include "sim/engine.hpp"
#include "sim/obs/registry.hpp"
#include "sim/ring.hpp"
#include "sim/obs/stats.hpp"
#include "sim/sync.hpp"

namespace dclue::net {

/// Per-frame fabric framing: Eth + IP + UDP + BTH-style transport header
/// (RoCEv2 trims TCP/IP's 58 bytes; the exact constant matters less than
/// being charged consistently on every frame).
inline constexpr sim::Bytes kRdmaHeaderBytes = 40;

struct RdmaParams {
  /// Frame payload capacity. RDMA NICs segment at the fabric MTU (4 KB
  /// class), not TCP's 1460-byte MSS, so an 8 KB block moves in 2 frames.
  sim::Bytes mtu = 4096;
  /// Receiver-granted window, in frames. Fixed for the connection's
  /// lifetime: flow control is credit-return, never congestion probing.
  int credits = 64;
  /// Solicit an ack at least every this many frames inside a long burst
  /// (burst-end and credit-edge frames are always solicited), bounding both
  /// ack traffic and the go-back-N rewind distance.
  int ack_every = 16;
  /// Hardware retry interval *floor*, pre-scale. The effective timeout is
  /// max(base_rto, srtt + 4 rttvar) from the per-connection estimator: on a
  /// PFC-lossless fabric congestion shows up as queueing delay rather than
  /// loss, and a fixed timer fires spuriously the moment the standing queue
  /// exceeds it — each spurious fire go-back-N-resends a window into the
  /// very queue that delayed the ack. The floor matches TCP's min-RTO and
  /// must comfortably exceed the solicited-ack interval (ack_every full
  /// frames' serialization at link rate). Scaled by the same data-center
  /// reduction x platform slow-down product as the TCP timers.
  double timer_scale = 0.01;
  sim::Duration base_rto = 0.2;
  /// Retry budget before the NIC reports the peer unreachable and the
  /// connection resets. Matched to the paper's raised TCP limit so neither
  /// transport gives up first under the same injected outage.
  int max_retransmits = 64;
  /// Congestion control: each signal halves both the paced rate (floored at
  /// cc_min_rate_fraction of port rate) and the in-flight frame cap; both
  /// recover ack-clocked (+port/64 and +1 frame per clean cumulative ack).
  /// Ack-clocked recovery — not DCQCN's wall-clock timer — is load-bearing
  /// here: the DBMS workload is sparse RPC, so a queue pair that was cut and
  /// then idles must still be cut when its next request fires. Wall-clock
  /// recovery lets every idle pair climb back to port rate between requests
  /// and re-flood the pps-bound forwarding engine in lockstep (measured:
  /// ~25% cluster throughput loss at 16 nodes). The floor is deliberately
  /// deep — per-pair fair share of the shared inter-LATA pipe sits near
  /// 0.1% of port rate at 24 nodes — and escape from it is ~64 acks
  /// regardless of depth.
  double cc_min_rate_fraction = 0.001;

  [[nodiscard]] sim::Duration rto() const { return base_rto * timer_scale; }
  [[nodiscard]] sim::Bytes window_bytes() const {
    return static_cast<sim::Bytes>(credits) * mtu;
  }
};

class RdmaStack;

/// One reliable-connection queue pair: the kernel-bypass wire protocol
/// (credits, go-back-N, rate pacing and DCQCN-style congestion control) over
/// the shared Endpoint machine.
class RdmaConnection final : public Endpoint {
 public:
  /// The injection timer captures a raw `this`, like the retry timer.
  ~RdmaConnection() override { inject_timer_.cancel(); }

  void send(sim::Bytes n) override;
  /// Half-close: the FIN analog follows the last queued byte.
  void close() override;

 private:
  friend class RdmaStack;
  RdmaConnection(RdmaStack& stack, std::uint64_t id, Address peer, Dscp dscp,
                 std::uint16_t port, Listener* listener);

  [[nodiscard]] RdmaStack& stack() const;

  void process_frame(const TcpSegment& seg);
  void process_ack(const TcpSegment& seg);
  void process_payload(const TcpSegment& seg);
  /// Plain-function transmit pump: emits frames until the credit window is
  /// exhausted or the queue drains. No coroutine, no allocation, re-entered
  /// by send()/acks/establishment.
  void pump();
  void emit_data(std::int64_t seq, sim::Bytes len, bool fin, bool solicit);
  void emit_control(bool syn, bool ack);
  /// Rate-paced injection (DCQCN-style): data/FIN frames queue on the QP and
  /// enter the port at `rate_`, so a congested connection throttles itself
  /// instead of dumping its whole credit window into the fabric.
  void inject_next();
  /// Stop the rate pacer and drop what it still holds (teardown).
  void stop_injecting();
  /// DCQCN multiplicative decrease, shared by the loss and CNP paths. At
  /// most one decrease per outstanding window (cnp_reduce_until_), the same
  /// once-per-RTT guard idiom as TcpConnection's ECN response.
  void on_congestion_event();
  void send_ack_now();
  void arm_rto();
  void on_rto();
  /// Go-back-N rewind: resend everything from the first unacked byte.
  void rewind_and_resend();
  void on_new_ack(std::int64_t acked_to);
  void do_reset();
  void maybe_finish_close();

  // --- requester (sender) ----------------------------------------------------
  int since_solicit_ = 0;       ///< frames since the last ack-soliciting one
  bool in_recovery_ = false;    ///< one rewind per loss event (NAK storm guard)
  std::int64_t recover_ = 0;
  /// Current injection rate (bits/s). Starts at port rate; halved by
  /// on_congestion_event(), recovered additively per clean cumulative ack.
  double rate_ = 0.0;
  /// IRN-style in-flight cap, in frames. Rate pacing alone cannot bound
  /// fabric occupancy when queue pairs outnumber the (lossless) fabric's
  /// capacity in frames — the cap does, by workload concurrency. Halved per
  /// congestion event, +1 frame per clean cumulative ack, in [1, credits].
  int cwnd_frames_ = 0;
  /// Per-QP egress queue: frames the pump has built but the rate pacer has
  /// not yet released to the port. Cleared on go-back-N rewind (the NIC
  /// re-reads from registered memory, it does not send stale duplicates).
  sim::Ring<Packet> tx_ring_;
  bool injecting_ = false;
  sim::EventHandle inject_timer_;
  std::int64_t cnp_reduce_until_ = 0;

  // --- responder (receiver) --------------------------------------------------
  // Strictly in-order: a frame that is not the next expected PSN is dropped
  // and NAKed (go-back-N), so there is no reassembly state at all.
  /// A CE-marked frame arrived and its CNP echo has not been sent yet.
  bool ce_seen_ = false;
};

/// Per-host RDMA NIC model: demultiplexes kProtoRdma frames into its
/// endpoint table. Charges nothing to the host CPU, ever — that is the point.
/// A node owns it alongside its TCP stack: DB clients stay on TCP even when
/// the cluster fabric is RDMA, so both stacks coexist on one NIC.
class RdmaStack final : public Transport {
 public:
  RdmaStack(sim::Engine& engine, Nic& nic, RdmaParams params);

  /// Active open; established() opens when the connect exchange completes.
  std::shared_ptr<Endpoint> connect(Address dst, std::uint16_t port,
                                    Dscp dscp = Dscp::kBestEffort) override;

  [[nodiscard]] const RdmaParams& params() const { return params_; }
  [[nodiscard]] Address address() const { return nic_.address(); }

  [[nodiscard]] std::uint64_t frames_sent() const { return frames_sent_.count(); }
  [[nodiscard]] std::uint64_t frames_received() const {
    return frames_received_.count();
  }
  [[nodiscard]] std::uint64_t total_retransmits() const {
    return retransmits_.count();
  }
  [[nodiscard]] std::uint64_t rto_fires() const { return rto_fires_.count(); }

  /// Bind the stack's collectors under \p prefix ("node0.rdma.").
  void register_metrics(obs::MetricsRegistry& reg, const std::string& prefix);

 private:
  friend class RdmaConnection;
  /// Fully synchronous: no CPU charge means no coroutine hop on receive.
  void on_packet(Packet pkt);
  void accept_syn(const Packet& pkt);
  /// Build a frame for \p conn. Control frames (SYN/ack, no sequence space)
  /// go straight to the port queue — a NIC generates those in hardware with
  /// no pacing; data and FIN frames queue on the QP's rate pacer.
  void emit(RdmaConnection& conn, TcpSegment seg, sim::Bytes payload_len);
  /// Hand one built frame to the port serializer.
  void transmit(Packet pkt);

  [[nodiscard]] double port_rate() const;

  /// Drain the egress queue at port rate (one frame per serialization slot).
  void pace_next();

  Nic& nic_;
  RdmaParams params_;
  /// Port serializer: frames leave the port at line rate, one per
  /// serialization slot. The queue lives in host memory and backpressures
  /// DMA, it never tail-drops. Because each QP's injector releases data
  /// frames at its paced rate (RdmaConnection::inject_next), this queue
  /// stays shallow — a control frame never waits behind another
  /// connection's full credit-window burst (the NIC analog: per-QP DMA
  /// scheduling instead of one FIFO across queue pairs).
  sim::Ring<Packet> tx_queue_;
  bool tx_busy_ = false;
  obs::Counter frames_sent_;
  obs::Counter frames_received_;
  obs::Counter retransmits_;
  obs::Counter rto_fires_;
};

inline RdmaStack& RdmaConnection::stack() const {
  return static_cast<RdmaStack&>(transport());
}

}  // namespace dclue::net
