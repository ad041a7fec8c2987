#include "net/rdma.hpp"

#include <algorithm>
#include <cassert>

namespace dclue::net {

// ---------------------------------------------------------------------------
// RdmaStack
// ---------------------------------------------------------------------------

RdmaStack::RdmaStack(sim::Engine& engine, Nic& nic, RdmaParams params)
    : Transport(engine, TransportKind::kRdma), nic_(nic), params_(params) {
  nic_.set_rdma_rx_handler([this](Packet pkt) { on_packet(std::move(pkt)); });
}

void RdmaStack::register_metrics(obs::MetricsRegistry& reg,
                                 const std::string& prefix) {
  reg.bind(prefix + "frames_sent", &frames_sent_);
  reg.bind(prefix + "frames_received", &frames_received_);
  reg.bind(prefix + "retransmits", &retransmits_);
  reg.bind(prefix + "rto_fires", &rto_fires_);
  reg.gauge_fn(prefix + "open_connections",
               [this] { return static_cast<double>(open_connections()); });
}

std::shared_ptr<Endpoint> RdmaStack::connect(Address dst, std::uint16_t port,
                                             Dscp dscp) {
  auto conn = std::shared_ptr<RdmaConnection>(new RdmaConnection(
      *this, engine().allocate_id(), dst, dscp, port, /*listener=*/nullptr));
  adopt(conn);
  // Connection setup costs a network round trip (the CM exchange) but no
  // host CPU: QP creation is a control-plane operation.
  conn->emit_control(/*syn=*/true, /*ack=*/false);
  conn->arm_rto();
  return conn;
}

void RdmaStack::on_packet(Packet pkt) {
  // Kernel bypass: frame handling charges no host CPU and takes no coroutine
  // hop — the whole receive path is this synchronous call chain.
  frames_received_.record();
  const auto& seg = pkt.seg;
  if (auto* conn = static_cast<RdmaConnection*>(find(seg.conn_id))) {
    conn->process_frame(seg);
    return;
  }
  // Passive open: rendezvous with a listener on the advertised port.
  // Anything else is a stale frame for a closed queue pair: ignore.
  if (seg.syn && !seg.is_ack) accept_syn(pkt);
}

void RdmaStack::accept_syn(const Packet& pkt) {
  Listener* listener = listener_on(pkt.seg.dst_port);
  if (listener == nullptr) return;  // connection refused: ignore
  auto conn = std::shared_ptr<RdmaConnection>(new RdmaConnection(
      *this, pkt.seg.conn_id, pkt.src, pkt.dscp, /*port=*/0, listener));
  adopt(conn);
  conn->emit_control(/*syn=*/true, /*ack=*/true);
  conn->arm_rto();
}

void RdmaStack::emit(RdmaConnection& conn, TcpSegment seg,
                     sim::Bytes payload_len) {
  seg.conn_id = conn.id();
  Packet pkt;
  pkt.dst = conn.peer();
  pkt.dscp = conn.dscp();
  pkt.proto = kProtoRdma;
  pkt.bytes = payload_len + kRdmaHeaderBytes;
  pkt.seg = seg;
  if (payload_len == 0 && !seg.fin) {
    // SYN / pure ack: generated in NIC hardware, enters the port directly.
    transmit(std::move(pkt));
    return;
  }
  // Data and FIN frames go through the QP's rate pacer (inject_next), so a
  // congested connection throttles itself at its DCQCN rate instead of
  // dumping its credit window into the fabric at once.
  conn.tx_ring_.push_back(std::move(pkt));
  if (!conn.injecting_) conn.inject_next();
}

void RdmaStack::transmit(Packet pkt) {
  frames_sent_.record();
  tx_queue_.push_back(std::move(pkt));
  if (!tx_busy_) pace_next();
}

double RdmaStack::port_rate() const { return nic_.uplink().rate(); }

void RdmaStack::pace_next() {
  if (tx_queue_.empty()) {
    tx_busy_ = false;
    return;
  }
  tx_busy_ = true;
  Packet pkt = std::move(tx_queue_.front());
  tx_queue_.pop_front();
  // The frame occupies the port for its serialization time; the next one is
  // released when that slot ends. The raw `this` capture is safe: the stack
  // outlives the engine run (same ownership as Link's transmit chain).
  const sim::Duration tx =
      sim::transmission_time(pkt.bytes, nic_.uplink().rate());
  nic_.send(std::move(pkt));
  engine().after(tx, [this] { pace_next(); });
}

// ---------------------------------------------------------------------------
// RdmaConnection
// ---------------------------------------------------------------------------

RdmaConnection::RdmaConnection(RdmaStack& stack, std::uint64_t id, Address peer,
                               Dscp dscp, std::uint16_t port, Listener* listener)
    : Endpoint(stack, id, peer, dscp, port, listener),
      rate_(stack.port_rate()),
      cwnd_frames_(stack.params().credits) {}

void RdmaConnection::inject_next() {
  if (tx_ring_.empty()) {
    injecting_ = false;
    return;
  }
  injecting_ = true;
  Packet pkt = std::move(tx_ring_.front());
  tx_ring_.pop_front();
  // The next frame is released when this one's serialization slot at the
  // QP's *current rate* ends; the stack's port serializer then multiplexes
  // the (already spaced) frames of all queue pairs at line rate. Raw `this`
  // capture: cancelled by every teardown path and by ~RdmaConnection.
  const sim::Duration gap = sim::transmission_time(pkt.bytes, rate_);
  stack().transmit(std::move(pkt));
  inject_timer_ = engine().after(gap, [this] { inject_next(); });
}

void RdmaConnection::stop_injecting() {
  inject_timer_.cancel();
  tx_ring_.clear();
  injecting_ = false;
}

void RdmaConnection::on_congestion_event() {
  // DCQCN-style multiplicative decrease. The floor keeps a starved QP
  // probing instead of stalling outright. One decrease per outstanding
  // window: a burst of CNPs (or a CNP racing a rewind) reflects one
  // congestion episode, not several.
  const double floor =
      stack().port_rate() * stack().params().cc_min_rate_fraction;
  rate_ = std::max(rate_ * 0.5, floor);
  cwnd_frames_ = std::max(1, cwnd_frames_ / 2);
  cnp_reduce_until_ = snd_nxt_;
}

void RdmaConnection::send(sim::Bytes n) {
  assert(n > 0);
  app_total_ += n;
  pump();
}

void RdmaConnection::close() {
  request_close();
  pump();
}

void RdmaConnection::pump() {
  if (state_ != State::kEstablished && state_ != State::kClosing) return;
  const sim::Bytes mtu = stack().params().mtu;
  // Effective window: receiver credits, clamped by the congestion-control
  // in-flight cap. The frame that fills either edge is ack-soliciting, so
  // the window reopens without waiting for the retry timer.
  const sim::Bytes wnd = std::min(stack().params().window_bytes(),
                                  static_cast<sim::Bytes>(cwnd_frames_) * mtu);
  for (;;) {
    const sim::Bytes avail = app_total_ - snd_nxt_;
    if (avail > 0) {
      const sim::Bytes len = std::min<sim::Bytes>(mtu, avail);
      // Credit-blocked: the frame that filled the window was ack-soliciting
      // (credit_edge below), so credits are already on their way back.
      if (flight() + len > wnd && flight() > 0) break;
      const bool burst_end = (avail == len);
      const bool credit_edge = (flight() + len >= wnd);
      const bool solicit = burst_end || credit_edge ||
                           since_solicit_ + 1 >= stack().params().ack_every;
      since_solicit_ = solicit ? 0 : since_solicit_ + 1;
      const std::int64_t seq = snd_nxt_;
      snd_nxt_ += len;
      // Sample RTT on an ack-soliciting frame only (its ack returns
      // immediately, so the sample is not inflated by ack coalescing).
      if (solicit) start_rtt_sample();
      emit_data(seq, len, /*fin=*/false, solicit);
      if (!rto_timer_.pending()) arm_rto();
      continue;
    }
    if (close_marker_due()) {
      emit_data(take_close_marker(), 0, /*fin=*/true, /*solicit=*/true);
      if (!rto_timer_.pending()) arm_rto();
    }
    break;
  }
}

void RdmaConnection::emit_data(std::int64_t seq, sim::Bytes len, bool fin,
                               bool solicit) {
  TcpSegment seg;
  seg.seq = seq;
  seg.len = len;
  seg.fin = fin;
  // Cumulative ack piggybacks on every data frame (both directions of an IPC
  // channel carry traffic, so this elides most ack-only frames).
  seg.is_ack = true;
  seg.ack = ack_value();
  // The ECE slot is repurposed as the ack-solicited bit; the CWR slot as the
  // CNP (congestion-notification) echo of a CE mark seen by our receive
  // side. ECN is a TCP-stack concept and RDMA frames never set or read
  // these as such — only seg.ce keeps its meaning (router -> receiver).
  seg.ece = solicit;
  seg.cwr = ce_seen_;
  ce_seen_ = false;
  stack().emit(*this, seg, len);
}

void RdmaConnection::emit_control(bool syn, bool ack) {
  TcpSegment seg;
  seg.syn = syn;
  seg.is_ack = ack;
  seg.ack = ack ? ack_value() : 0;
  if (ack && !syn) {
    seg.cwr = ce_seen_;  // CNP piggybacks on the ack (see emit_data)
    ce_seen_ = false;
  }
  seg.dst_port = syn_port_;
  stack().emit(*this, seg, 0);
}

void RdmaConnection::send_ack_now() { emit_control(/*syn=*/false, /*ack=*/true); }

void RdmaConnection::process_frame(const TcpSegment& seg) {
  switch (state_) {
    case State::kConnecting:
      if (seg.syn && seg.is_ack) {
        establish();
        consecutive_rto_ = 0;
        send_ack_now();
        open_established();
        pump();
      }
      return;
    case State::kAccepting:
      if (seg.syn && !seg.is_ack) return;  // dup request; SYN|ACK rexmits on timer
      establish();
      consecutive_rto_ = 0;
      open_established();
      pump();
      // Fall through: the completing ack may carry data.
      break;
    case State::kClosed:
      return;
    default:
      break;
  }

  if (seg.syn && seg.is_ack) {
    // Retransmitted SYN|ACK after our completing ack was lost: re-ack.
    send_ack_now();
    return;
  }
  if (seg.len > 0 || seg.fin) process_payload(seg);
  if (seg.is_ack) process_ack(seg);
}

void RdmaConnection::process_payload(const TcpSegment& seg) {
  if (seg.ce) ce_seen_ = true;
  if (seg.seq > rcv_nxt_) {
    // PSN sequence error: go-back-N receivers hold no reassembly state. Drop
    // the frame and NAK (a duplicate cumulative ack) so the sender rewinds.
    send_ack_now();
    return;
  }
  const std::int64_t end = seg.seq + seg.len;
  if (seg.fin) note_peer_close(end);
  const std::int64_t old_rcv = rcv_nxt_;
  if (end > rcv_nxt_) rcv_nxt_ = end;
  deliver();
  if (peer_closed()) {
    send_ack_now();
    signal_eof();
    maybe_finish_close();
  } else if (seg.ece || rcv_nxt_ == old_rcv) {
    // Ack-soliciting frame, or a pure duplicate (the peer rewound because
    // our ack was lost — re-ack to resync it). A pending CNP echo rides
    // this regular ack schedule rather than forcing an immediate frame —
    // the analog of hardware CNP rate-limiting (an ack-per-mark would
    // inflate the pps load on the store-and-forward routers, the very
    // resource under congestion).
    send_ack_now();
  }
}

void RdmaConnection::process_ack(const TcpSegment& seg) {
  if (seg.cwr && snd_una_ >= cnp_reduce_until_) {
    // CNP: the fabric marked our frames. Rate decrease only — nothing was
    // lost, so there is nothing to rewind.
    on_congestion_event();
  }
  if (seg.ack > snd_una_) {
    on_new_ack(seg.ack);
    return;
  }
  if (flight() > 0 && seg.len == 0 && !seg.syn && !seg.fin && !in_recovery_) {
    // NAK: the responder reported a sequence error at seg.ack. One rewind
    // per loss event — every out-of-order frame behind the hole NAKs too,
    // and those must not each restart the resend.
    in_recovery_ = true;
    recover_ = snd_nxt_;
    rewind_and_resend();
  }
}

void RdmaConnection::on_new_ack(std::int64_t acked_to) {
  note_new_ack(acked_to);
  sample_rtt(acked_to);
  // Both controls recover ack-clocked, so only queue pairs that are
  // actively moving data climb back toward line rate: a sparse-RPC pair
  // that went idle after a cut stays cut, and cannot burst the pps-bound
  // forwarding engine when its next request fires. (Wall-clock recovery,
  // DCQCN-style, was tried and re-floods the fabric between requests.)
  cwnd_frames_ = std::min(cwnd_frames_ + 1, stack().params().credits);
  const double port = stack().port_rate();
  rate_ = std::min(rate_ + port / 64.0, port);
  if (in_recovery_ && acked_to >= recover_) in_recovery_ = false;
  if (flight() > 0) {
    arm_rto();
  } else {
    rto_timer_.cancel();
  }
  maybe_finish_close();
  pump();
}

void RdmaConnection::rewind_and_resend() {
  ++retransmit_count_;
  stack().retransmits_.record();
  on_congestion_event();
  // Go-back-N: restart from the first unacked byte. Credits cover the whole
  // rewind (recover_ - snd_una_ <= window), so one pump resends everything.
  // Frames still queued on the rate pacer are discarded first — the NIC
  // re-reads from registered memory on a rewind, it does not send stale
  // copies ahead of the retransmission.
  tx_ring_.clear();
  if (fin_sent_ && snd_una_ <= fin_seq_) fin_sent_ = false;
  snd_nxt_ = snd_una_;
  since_solicit_ = 0;
  rtt_seq_ = -1;  // Karn: never sample across a retransmission
  pump();
}

void RdmaConnection::arm_rto() {
  rto_timer_.cancel();
  // The configured retry interval floors the timer; the RTT estimator
  // raises it once acks are observed, so a standing fabric queue inflates
  // the timeout instead of triggering spurious go-back-N rewinds.
  const sim::Duration base =
      std::max(stack().params().rto(), srtt_ + 4.0 * rttvar_);
  const sim::Duration backoff_part = std::min(
      base * static_cast<double>(1 << std::min(rto_backoff_, 10)), base * 1024.0);
  // A hardware retry timer runs from the *transmission* of the unacked
  // frame, but this model arms at posting time — add the time the rate
  // pacer needs to drain the posted flight so a self-throttled QP does not
  // fire spuriously on frames still sitting in its own send queue.
  const sim::Duration timeout =
      backoff_part + sim::transmission_time(flight(), rate_);
  // Raw capture: cancelled by every teardown path and by ~Endpoint.
  rto_timer_ = engine().timer_after(timeout, [this] { on_rto(); });
}

void RdmaConnection::on_rto() {
  if (state_ == State::kClosed) return;
  stack().rto_fires_.record();
  if (retries_exhausted(stack().params().max_retransmits)) {
    do_reset();
    return;
  }
  if (state_ == State::kConnecting) {
    emit_control(/*syn=*/true, /*ack=*/false);
    arm_rto();
    return;
  }
  if (state_ == State::kAccepting) {
    emit_control(/*syn=*/true, /*ack=*/true);
    arm_rto();
    return;
  }
  if (flight() <= 0) return;
  in_recovery_ = false;  // the timer supersedes any NAK-driven recovery
  rewind_and_resend();   // pump re-arms the timer with the new backoff
  if (!rto_timer_.pending()) arm_rto();
}

void RdmaConnection::do_reset() {
  enter_closed();
  stop_injecting();
  established_.open();  // unblock connect()ors; they must check closed()
  notify_reset();
}

void RdmaConnection::maybe_finish_close() {
  if (!close_complete()) return;
  enter_closed();
  stop_injecting();
  unregister();
}

}  // namespace dclue::net
