#include "net/tcp.hpp"

#include <algorithm>
#include <cassert>

#include "cpu/processor.hpp"
#include "sim/obs/trace.hpp"

namespace dclue::net {

// ---------------------------------------------------------------------------
// TcpStack
// ---------------------------------------------------------------------------

TcpStack::TcpStack(sim::Engine& engine, Nic& nic, TcpParams params,
                   TcpCostModel costs, cpu::Processor* cpu)
    : Transport(engine, TransportKind::kTcp),
      nic_(nic),
      params_(params),
      costs_(costs),
      cpu_(cpu) {
  nic_.set_rx_handler([this](Packet pkt) { rx_process(std::move(pkt)); });
}

void TcpStack::register_metrics(obs::MetricsRegistry& reg,
                                const std::string& prefix) {
  reg.bind(prefix + "segments_sent", &segments_sent_);
  reg.bind(prefix + "segments_received", &segments_received_);
  reg.bind(prefix + "retransmits", &retransmits_);
  reg.bind(prefix + "rto_fires", &rto_fires_);
  reg.gauge_fn(prefix + "open_connections",
               [this] { return static_cast<double>(open_connections()); });
}

std::shared_ptr<Endpoint> TcpStack::connect(Address dst, std::uint16_t port,
                                            Dscp dscp) {
  auto conn = std::shared_ptr<TcpConnection>(new TcpConnection(
      *this, engine().allocate_id(), dst, dscp, port, /*listener=*/nullptr));
  adopt(conn);
  conn->start_handshake();
  return conn;
}

sim::DetachedTask TcpStack::rx_process(Packet pkt) {
  const sim::PathLength cost = costs_.per_segment_rx +
                               static_cast<double>(pkt.seg.len) * costs_.per_byte_rx;
  co_await cpu::charge(cpu_, cost, cpu::JobClass::kInterrupt);
  segments_received_.record();
  const auto& seg = pkt.seg;
  if (auto* conn = static_cast<TcpConnection*>(find(seg.conn_id))) {
    conn->process_segment(seg);
    co_return;
  }
  // Passive open: rendezvous with a listener on the advertised port.
  // Anything else is a stale segment for a closed connection: ignore.
  if (seg.syn && !seg.is_ack) accept_syn(pkt);
}

void TcpStack::accept_syn(const Packet& pkt) {
  Listener* listener = listener_on(pkt.seg.dst_port);
  if (listener == nullptr) return;  // connection refused: ignore
  auto conn = std::shared_ptr<TcpConnection>(new TcpConnection(
      *this, pkt.seg.conn_id, pkt.src, pkt.dscp, /*port=*/0, listener));
  adopt(conn);
  sim::spawn([](std::shared_ptr<TcpConnection> c) -> sim::Task<void> {
    co_await cpu::charge(c->stack().cpu_, c->stack().costs().connection_setup,
                         cpu::JobClass::kKernel);
    c->send_control(/*syn=*/true, /*ack=*/true);
    c->arm_rto();
  }(std::move(conn)));
}

void TcpStack::emit(TcpConnection& conn, TcpSegment seg, sim::Bytes payload_len) {
  seg.conn_id = conn.id();
  Packet pkt;
  pkt.dst = conn.peer();
  pkt.dscp = conn.dscp();
  pkt.bytes = payload_len + kHeaderBytes;
  pkt.seg = seg;
  segments_sent_.record();
  nic_.send(std::move(pkt));
}

// ---------------------------------------------------------------------------
// TcpConnection
// ---------------------------------------------------------------------------

TcpConnection::TcpConnection(TcpStack& stack, std::uint64_t id, Address peer,
                             Dscp dscp, std::uint16_t port, Listener* listener)
    : Endpoint(stack, id, peer, dscp, port, listener),
      rto_(stack.params().initial_rto()),
      tx_signal_(stack.engine()) {
  const auto& p = stack.params();
  cwnd_ = static_cast<double>(p.initial_cwnd_segments * p.mss);
  ssthresh_ = static_cast<double>(p.rwnd);
}

void TcpConnection::start_handshake() {
  sim::spawn([](std::shared_ptr<TcpConnection> c) -> sim::Task<void> {
    co_await cpu::charge(c->stack().cpu_, c->stack().costs().connection_setup,
                         cpu::JobClass::kKernel);
    if (c->state_ != State::kConnecting) co_return;
    c->send_control(/*syn=*/true, /*ack=*/false);
    c->arm_rto();
  }(self()));
}

sim::Bytes TcpConnection::effective_window() const {
  const auto wnd = static_cast<sim::Bytes>(
      std::min(cwnd_, static_cast<double>(stack().params().rwnd)));
  return wnd - flight();
}

void TcpConnection::send(sim::Bytes n) {
  assert(n > 0);
  app_total_ += n;
  transmit_pump_kick();
}

void TcpConnection::close() {
  request_close();
  transmit_pump_kick();
}

sim::Task<void> TcpConnection::wait_all_acked() {
  const std::int64_t target = app_total_;
  if (snd_una_ >= target) co_return;
  // Park this coroutine directly in the waiter vector; on_new_ack/do_reset
  // resume it deferred through the engine, exactly as the per-waiter Gate
  // this replaces did (same wakeup event, no allocation).
  struct Awaiter {
    TcpConnection& conn;
    std::int64_t target;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      conn.ack_waiters_.push_back({target, h});
    }
    void await_resume() const noexcept {}
  };
  co_await Awaiter{*this, target};
}

void TcpConnection::transmit_pump_kick() {
  if (!pump_running_) {
    pump_running_ = true;
    transmit_pump();
  } else {
    tx_signal_.notify();
  }
}

sim::DetachedTask TcpConnection::transmit_pump() {
  auto keep_alive = self();
  for (;;) {
    if (state_ == State::kClosed) break;
    if (state_ == State::kEstablished || state_ == State::kClosing) {
      const sim::Bytes avail = app_total_ - snd_nxt_;
      const sim::Bytes mss = stack().params().mss;
      if (avail > 0) {
        const sim::Bytes len = std::min<sim::Bytes>(mss, avail);
        if (effective_window() >= len || flight() == 0) {
          const sim::PathLength cost =
              stack().costs().per_segment_tx +
              static_cast<double>(len) * stack().costs().per_byte_tx;
          co_await cpu::charge(stack().cpu_, cost, cpu::JobClass::kKernel);
          if (state_ == State::kClosed) break;  // reset while charging
          const std::int64_t seq = snd_nxt_;
          snd_nxt_ += len;
          start_rtt_sample();
          send_segment(seq, len, /*fin=*/false);
          if (!rto_timer_.pending()) arm_rto();
          continue;
        }
      } else if (close_marker_due()) {
        co_await cpu::charge(stack().cpu_, stack().costs().per_segment_tx,
                             cpu::JobClass::kKernel);
        if (state_ == State::kClosed) break;
        send_segment(take_close_marker(), 0, /*fin=*/true);
        if (!rto_timer_.pending()) arm_rto();
        continue;
      }
    }
    co_await tx_signal_.wait();
  }
  pump_running_ = false;
}

void TcpConnection::send_segment(std::int64_t seq, sim::Bytes len, bool fin) {
  TcpSegment seg;
  seg.seq = seq;
  seg.len = len;
  seg.fin = fin;
  seg.is_ack = true;
  seg.ack = ack_value();
  seg.ece = ecn_echo_;
  if (cwr_pending_ && len > 0) {
    seg.cwr = true;
    cwr_pending_ = false;
  }
  // Piggybacked ack resets the delayed-ack machinery.
  unacked_segments_ = 0;
  delack_timer_.cancel();
  stack().emit(*this, seg, len);
}

void TcpConnection::send_control(bool syn, bool ack, bool fin) {
  TcpSegment seg;
  seg.syn = syn;
  seg.fin = fin;
  seg.is_ack = ack;
  seg.ack = ack ? ack_value() : 0;
  seg.dst_port = syn_port_;
  seg.ece = ecn_echo_;
  stack().emit(*this, seg, 0);
}

void TcpConnection::send_ack_now() {
  delack_timer_.cancel();
  unacked_segments_ = 0;
  sim::spawn([](std::shared_ptr<TcpConnection> c) -> sim::Task<void> {
    co_await cpu::charge(c->stack().cpu_, c->stack().costs().per_segment_tx,
                         cpu::JobClass::kKernel);
    if (c->state_ == State::kClosed) co_return;
    c->send_control(/*syn=*/false, /*ack=*/true);
  }(self()));
}

void TcpConnection::maybe_delayed_ack() {
  if (++unacked_segments_ >= 2) {
    send_ack_now();
    return;
  }
  if (!delack_timer_.pending()) {
    delack_timer_ = engine().timer_after(
        stack().params().delayed_ack(), [this] {
          if (state_ != State::kClosed) send_ack_now();
        });
  }
}

void TcpConnection::process_segment(const TcpSegment& seg) {
  switch (state_) {
    case State::kConnecting:
      if (seg.syn && seg.is_ack) {
        establish();
        send_ack_now();
        open_established();
        transmit_pump_kick();
      }
      return;
    case State::kAccepting:
      if (seg.syn && !seg.is_ack) return;  // duplicate SYN; SYN|ACK will rexmit
      establish();
      open_established();
      transmit_pump_kick();
      // Fall through: the completing ACK may carry data.
      break;
    case State::kClosed:
      return;
    default:
      break;
  }

  if (seg.syn && seg.is_ack) {
    // Retransmitted SYN|ACK after our ACK was lost: re-acknowledge.
    send_ack_now();
    return;
  }
  if (seg.ce) ecn_echo_ = true;
  if (seg.cwr) ecn_echo_ = false;
  if (seg.len > 0 || seg.fin) process_payload(seg);
  if (seg.is_ack) process_ack(seg);
}

void TcpConnection::process_payload(const TcpSegment& seg) {
  std::int64_t s = seg.seq;
  std::int64_t e = seg.seq + seg.len;
  if (seg.fin) note_peer_close(e);
  const bool was_in_order = (s <= rcv_nxt_ && e >= rcv_nxt_);
  if (e > rcv_nxt_ && seg.len > 0) {
    // Merge [s, e) into the sorted out-of-order range vector: absorb an
    // overlapping-or-touching predecessor, then every successor the merged
    // range reaches, and splice the result back in place.
    std::size_t idx = 0;
    while (idx < ooo_.size() && ooo_[idx].start < s) ++idx;
    if (idx > 0 && ooo_[idx - 1].end >= s) {
      --idx;
      s = ooo_[idx].start;
      e = std::max(e, ooo_[idx].end);
      ooo_.erase_at(idx);
    }
    std::size_t last = idx;
    while (last < ooo_.size() && ooo_[last].start <= e) {
      e = std::max(e, ooo_[last].end);
      ++last;
    }
    ooo_.erase_range(idx, last);
    ooo_.insert_at(idx, {s, e});
    // Advance rcv_nxt through any now-contiguous prefix.
    if (!ooo_.empty() && ooo_.front().start <= rcv_nxt_) {
      rcv_nxt_ = std::max(rcv_nxt_, ooo_.front().end);
      ooo_.erase_at(0);
    }
  }
  deliver();
  if (!ooo_.empty() && !was_in_order) {
    send_ack_now();  // duplicate ack signalling the hole
  } else if (peer_closed()) {
    send_ack_now();
    signal_eof();
    maybe_finish_close();
  } else if (seg.len > 0) {
    maybe_delayed_ack();
  }
}

void TcpConnection::process_ack(const TcpSegment& seg) {
  const auto& p = stack().params();
  if (seg.ece) {
    if (snd_una_ >= ecn_reduce_until_) {
      ssthresh_ = std::max(cwnd_ / 2.0, 2.0 * static_cast<double>(p.mss));
      cwnd_ = ssthresh_;
      DCLUE_TRACE_COUNTER("tcp", "cwnd", engine().now(), cwnd_,
                          static_cast<std::uint32_t>(id()));
      ecn_reduce_until_ = snd_nxt_;
      cwr_pending_ = true;
    }
  }
  if (seg.ack > snd_una_) {
    on_new_ack(seg.ack);
  } else if (seg.ack == snd_una_ && flight() > 0 && seg.len == 0 && !seg.syn &&
             !seg.fin) {
    ++dupacks_;
    if (dupacks_ == 3 && !in_recovery_) {
      enter_fast_recovery();
    } else if (in_recovery_) {
      cwnd_ += static_cast<double>(p.mss);
      transmit_pump_kick();
    }
  }
}

void TcpConnection::on_new_ack(std::int64_t acked_to) {
  const auto& p = stack().params();
  const sim::Bytes mss = p.mss;
  const std::int64_t newly = acked_to - snd_una_;
  if (sample_rtt(acked_to)) {
    rto_ = std::clamp(srtt_ + 4.0 * rttvar_, p.min_rto(), p.max_rto());
  }
  note_new_ack(acked_to);

  if (in_recovery_) {
    if (acked_to >= recover_) {
      in_recovery_ = false;
      cwnd_ = ssthresh_;
      dupacks_ = 0;
    } else {
      // NewReno partial ack: retransmit the next hole, deflate the window.
      retransmit_at(snd_una_);
      cwnd_ = std::max(cwnd_ - static_cast<double>(newly) + static_cast<double>(mss),
                       static_cast<double>(mss));
    }
  } else {
    dupacks_ = 0;
    if (cwnd_ < ssthresh_) {
      cwnd_ += static_cast<double>(std::min<std::int64_t>(newly, mss));
    } else {
      cwnd_ += static_cast<double>(mss) * static_cast<double>(mss) / cwnd_;
    }
  }

  // Release senders waiting for full acknowledgement: one compacting pass,
  // resuming satisfied waiters in vector order (the order the erase-and-
  // rescan loop this replaces released them in).
  std::size_t kept = 0;
  for (std::size_t i = 0; i < ack_waiters_.size(); ++i) {
    if (ack_waiters_[i].target <= snd_una_) {
      sim::detail::resume_via_engine(engine(), ack_waiters_[i].handle);
    } else {
      ack_waiters_[kept++] = ack_waiters_[i];
    }
  }
  ack_waiters_.truncate(kept);

  if (flight() > 0) {
    arm_rto();
  } else {
    rto_timer_.cancel();
  }
  maybe_finish_close();
  transmit_pump_kick();
}

void TcpConnection::enter_fast_recovery() {
  const auto& p = stack().params();
  ssthresh_ = std::max(static_cast<double>(flight()) / 2.0,
                       2.0 * static_cast<double>(p.mss));
  retransmit_at(snd_una_);
  cwnd_ = ssthresh_ + 3.0 * static_cast<double>(p.mss);
  DCLUE_TRACE_COUNTER("tcp", "cwnd", engine().now(), cwnd_,
                      static_cast<std::uint32_t>(id()));
  in_recovery_ = true;
  recover_ = snd_nxt_;
}

void TcpConnection::retransmit_at(std::int64_t seq) {
  ++retransmit_count_;
  stack().retransmits_.record();
  DCLUE_TRACE_INSTANT("tcp", "retransmit", engine().now(),
                      static_cast<std::uint32_t>(id()));
  rtt_seq_ = -1;  // Karn: do not sample RTT across a retransmission
  const bool is_fin = fin_sent_ && seq == fin_seq_;
  const sim::Bytes len =
      is_fin ? 0
             : std::min<sim::Bytes>(stack().params().mss, app_total_ - seq);
  const sim::PathLength cost =
      stack().costs().per_segment_tx +
      static_cast<double>(len) * stack().costs().per_byte_tx;
  sim::spawn([](std::shared_ptr<TcpConnection> c, std::int64_t seq,
                sim::Bytes len, bool fin, sim::PathLength cost) -> sim::Task<void> {
    co_await cpu::charge(c->stack().cpu_, cost, cpu::JobClass::kKernel);
    if (c->state_ == State::kClosed) co_return;
    c->send_segment(seq, len, fin);
  }(self(), seq, len, is_fin, cost));
}

void TcpConnection::arm_rto() {
  rto_timer_.cancel();
  const auto& p = stack().params();
  sim::Duration timeout =
      std::min(rto_ * static_cast<double>(1 << std::min(rto_backoff_, 16)),
               p.max_rto());
  // Raw capture: cancelled by every teardown path and by ~Endpoint.
  rto_timer_ = engine().timer_after(timeout, [this] { on_rto(); });
}

void TcpConnection::on_rto() {
  if (state_ == State::kClosed) return;
  stack().rto_fires_.record();
  DCLUE_TRACE_INSTANT("tcp", "rto", engine().now(),
                      static_cast<std::uint32_t>(id()));
  if (retries_exhausted(stack().params().max_retransmits)) {
    do_reset();
    return;
  }
  if (state_ == State::kConnecting) {
    send_control(/*syn=*/true, /*ack=*/false);
    arm_rto();
    return;
  }
  if (state_ == State::kAccepting) {
    send_control(/*syn=*/true, /*ack=*/true);
    arm_rto();
    return;
  }
  if (flight() <= 0) return;
  const auto& p = stack().params();
  ssthresh_ = std::max(static_cast<double>(flight()) / 2.0,
                       2.0 * static_cast<double>(p.mss));
  cwnd_ = static_cast<double>(p.mss);
  in_recovery_ = false;
  dupacks_ = 0;
  retransmit_at(snd_una_);
  arm_rto();
}

void TcpConnection::do_reset() {
  enter_closed();
  delack_timer_.cancel();
  tx_signal_.notify();
  established_.open();  // unblock connect()ors; they must check closed()
  for (const AckWaiter& w : ack_waiters_) {
    sim::detail::resume_via_engine(engine(), w.handle);
  }
  ack_waiters_.clear();
  notify_reset();
}

void TcpConnection::maybe_finish_close() {
  if (!close_complete()) return;
  enter_closed();
  delack_timer_.cancel();
  tx_signal_.notify();
  unregister();
}

}  // namespace dclue::net
