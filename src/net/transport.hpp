#pragma once

/// \file transport.hpp
/// The fabric's stream contract, implemented once. An Endpoint is one end of
/// a reliable, ordered byte stream with connect/close/reset semantics and a
/// DSCP hint; a Transport is one host's table of endpoints and listeners.
/// Both are concrete: the connection machine (connecting or accepting,
/// established, closing, closed), both sequence spaces and their close
/// markers, the retry timer's backoff and the Jacobson/Karn RTT estimate,
/// in-order delivery with buffering until a handler exists, the reset and
/// EOF callbacks, and the table with its deferred erase all live here. The
/// two stacks derive from them and add only a wire protocol: TcpStack
/// (net/tcp.hpp), the paper's unified fabric and the golden baseline, and
/// RdmaStack (net/rdma.hpp), the kernel-bypass model. The
/// protocol layers above (proto::MsgChannel, cluster::IpcService,
/// proto::Iscsi) speak only Endpoint and Transport, so the cluster runs on
/// either fabric without touching them.
///
/// Contract, the same on both fabrics:
///   - Bytes are delivered reliably and in order; the Nth byte sent is the
///     Nth byte handed to the peer's rx handler. Message meaning rides a
///     simulator side-band keyed by connection id (see proto::MsgChannel),
///     which is legitimate only because of this ordering guarantee.
///   - established() opens exactly once: when the transport-level handshake
///     completes, or on reset (waiters must re-check closed()).
///   - Reset handlers fire once if the transport gives up on the peer
///     (retransmission limit, fabric partition); eof fires once when the
///     peer's clean close has been received in order. After either, the
///     endpoint is closed() and delivers nothing further.
///   - Connection ids come from the owning engine (engine.allocate_id()),
///     so both endpoints of one connection share an id that is unique
///     within the run yet independent of any concurrent sweep point.

#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/packet.hpp"
#include "sim/engine.hpp"
#include "sim/flat_map.hpp"
#include "sim/inline_fn.hpp"
#include "sim/sync.hpp"

namespace dclue::net {

/// Selectable fabric transports (ClusterConfig::transport_spec).
enum class TransportKind : std::uint8_t { kTcp = 0, kRdma = 1 };

[[nodiscard]] const char* transport_kind_name(TransportKind kind);

/// Parse a transport spec string ("tcp" | "rdma"); empty on unknown specs.
[[nodiscard]] std::optional<TransportKind> try_parse_transport_spec(
    std::string_view spec);

/// Parsing for config paths that want an error: throws std::invalid_argument
/// naming the valid specs on anything try_parse_transport_spec rejects.
[[nodiscard]] TransportKind parse_transport_spec(std::string_view spec);

class Endpoint;
class Transport;

/// Passive endpoint: accept() yields peers whose handshake completed. An
/// endpoint publishes itself here when its passive open finishes, so accept
/// costs exactly one engine hop whichever stack produced the connection.
class Listener {
 public:
  explicit Listener(sim::Engine& engine) : accepted_(engine) {}
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  auto accept() { return accepted_.receive(); }

  /// Hand a freshly-established endpoint to the acceptor.
  void publish(std::shared_ptr<Endpoint> ep) { accepted_.push(std::move(ep)); }

 private:
  sim::Mailbox<std::shared_ptr<Endpoint>> accepted_;
};

/// One reliable stream endpoint. TcpConnection and RdmaConnection derive
/// from it and add their wire protocol; lifetime is shared between the
/// owning transport's table and any application coroutine holding it.
class Endpoint : public std::enable_shared_from_this<Endpoint> {
 public:
  /// kConnecting / kAccepting are the two sides of the handshake (TCP's
  /// SYN-sent / SYN-received; RDMA's connect-request exchange).
  enum class State { kConnecting, kAccepting, kEstablished, kClosing, kClosed };

  /// Handlers on the per-segment path use inline callable storage (see
  /// sim/inline_fn.hpp); the cold-path reset/EOF callbacks stay std::function.
  using RxHandler = sim::InlineFn<void(sim::Bytes)>;

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;
  /// The retry timer captures a raw `this` (rearming it on every ack is too
  /// hot for shared_ptr refcount traffic), so it must never outlive the
  /// endpoint: teardown cancels it, and this destructor backstops any
  /// endpoint dropped without a clean teardown.
  virtual ~Endpoint() { rto_timer_.cancel(); }

  /// Queue \p n application bytes for transmission.
  virtual void send(sim::Bytes n) = 0;

  /// Half-close: the protocol's close marker follows the last queued byte.
  virtual void close() = 0;

  /// In-order payload bytes are delivered through this callback. Bytes that
  /// arrive before a handler is installed are buffered and flushed to it.
  void set_rx_handler(RxHandler fn) {
    rx_handler_ = std::move(fn);
    if (rx_handler_ && rx_buffered_ > 0) {
      const sim::Bytes n = rx_buffered_;
      rx_buffered_ = 0;
      rx_handler_(n);
    }
  }

  /// Called if the connection resets (the transport gave up on the peer).
  /// Multiple handlers may register (protocol layer + application).
  void add_reset_handler(std::function<void()> fn) {
    reset_handlers_.push_back(std::move(fn));
  }

  /// Called once when the peer's clean close has been received in order.
  /// Fires immediately if it already arrived.
  void set_eof_handler(std::function<void()> fn) {
    eof_handler_ = std::move(fn);
    if (eof_signaled_ && eof_handler_) eof_handler_();
  }

  /// Awaitable: opens when the transport-level handshake completes (also
  /// opened by a reset — waiters must re-check closed()).
  [[nodiscard]] sim::Gate& established() { return established_; }

  [[nodiscard]] State state() const { return state_; }
  /// True once the endpoint is fully torn down (clean close or reset).
  [[nodiscard]] bool closed() const { return state_ == State::kClosed; }

  [[nodiscard]] sim::Engine& engine() const;
  [[nodiscard]] std::uint64_t id() const { return id_; }
  [[nodiscard]] Address peer() const { return peer_; }
  [[nodiscard]] Dscp dscp() const { return dscp_; }
  [[nodiscard]] sim::Bytes bytes_received() const { return delivered_; }
  [[nodiscard]] sim::Bytes bytes_sent_acked() const { return snd_una_; }
  [[nodiscard]] std::uint64_t retransmits() const { return retransmit_count_; }

 protected:
  /// An active open names the peer's listening \p port; a passive open
  /// names the \p listener that receives the endpoint once established.
  Endpoint(Transport& transport, std::uint64_t id, Address peer, Dscp dscp,
           std::uint16_t port, Listener* listener);

  [[nodiscard]] Transport& transport() const { return transport_; }

  // --- connection machine ---------------------------------------------------
  /// The handshake completed: stop its retry timer and backoff.
  void establish() {
    state_ = State::kEstablished;
    rto_timer_.cancel();
    rto_backoff_ = 0;
  }
  /// Second half of establishment: open established(), honour a close()
  /// that came while connecting, and hand a passive open to its listener.
  void open_established() {
    established_.open();
    if (closing_requested_) state_ = State::kClosing;
    if (listener_ != nullptr) listener_->publish(shared_from_this());
  }
  /// Record the application's close(); the protocol then kicks its sender.
  void request_close() {
    closing_requested_ = true;
    if (state_ == State::kEstablished) state_ = State::kClosing;
  }
  /// Bytes (and close-marker slots) sent but not yet acknowledged.
  [[nodiscard]] sim::Bytes flight() const { return snd_nxt_ - snd_una_; }
  /// Every queued byte is out and close() was called: send the marker.
  [[nodiscard]] bool close_marker_due() const {
    return closing_requested_ && !fin_sent_ && snd_nxt_ == app_total_;
  }
  /// Our close marker consumes one sequence number; returns its slot.
  std::int64_t take_close_marker() {
    fin_seq_ = snd_nxt_;
    snd_nxt_ += 1;
    fin_sent_ = true;
    return fin_seq_;
  }
  /// Both close markers are delivered and acknowledged, and the endpoint is
  /// not closed yet.
  [[nodiscard]] bool close_complete() const {
    return fin_sent_ && snd_una_ >= fin_seq_ + 1 && peer_closed() &&
           state_ != State::kClosed;
  }
  /// First step of either teardown: deliver nothing further, stop retrying.
  void enter_closed() {
    state_ = State::kClosed;
    rto_timer_.cancel();
  }
  /// Last step of a clean close: leave the transport's table.
  void unregister();
  /// Last step of a reset: leave the table, then run every reset handler.
  void notify_reset() {
    unregister();
    for (auto& handler : reset_handlers_) handler();
  }

  // --- receive side -----------------------------------------------------------
  /// The peer's close marker occupies sequence slot \p seq.
  void note_peer_close(std::int64_t seq) {
    peer_fin_ = true;
    peer_fin_seq_ = seq;
  }
  /// The peer's close marker has arrived in order.
  [[nodiscard]] bool peer_closed() const {
    return peer_fin_ && rcv_nxt_ >= peer_fin_seq_;
  }
  /// Cumulative ack; after the peer's in-order close marker it covers the
  /// marker's sequence slot.
  [[nodiscard]] std::int64_t ack_value() const {
    return peer_closed() ? rcv_nxt_ + 1 : rcv_nxt_;
  }
  /// Hand newly in-order bytes to the rx handler, or buffer them until one
  /// is installed.
  void deliver() {
    if (rcv_nxt_ <= delivered_) return;
    const sim::Bytes n = rcv_nxt_ - delivered_;
    delivered_ = rcv_nxt_;
    if (rx_handler_) {
      rx_handler_(n);
    } else {
      rx_buffered_ += n;
    }
  }
  /// Fire the EOF handler, once.
  void signal_eof() {
    if (eof_signaled_) return;
    eof_signaled_ = true;
    if (eof_handler_) eof_handler_();
  }

  // --- retry timer and RTT estimate -------------------------------------------
  /// A cumulative ack moved snd_una_ to \p acked_to: the peer is alive, so
  /// the retry backoff and the consecutive-timeout count restart.
  void note_new_ack(std::int64_t acked_to) {
    snd_una_ = acked_to;
    consecutive_rto_ = 0;
    rto_backoff_ = 0;
  }
  /// One retry timeout: back off once more. True when the retry budget is
  /// spent and the endpoint must reset.
  [[nodiscard]] bool retries_exhausted(int max_retransmits) {
    ++rto_backoff_;
    return ++consecutive_rto_ > max_retransmits;
  }
  /// Start an RTT sample on the byte just sent, unless one is live.
  void start_rtt_sample();
  /// Close the live RTT sample if \p acked_to covers it (Jacobson's
  /// estimator; retransmissions discard the sample, Karn's rule). True when
  /// the estimate moved.
  bool sample_rtt(std::int64_t acked_to);

  State state_;
  sim::Gate established_;
  std::uint16_t syn_port_;  ///< the peer's listening port (active opens)

  // --- sender -----------------------------------------------------------------
  std::int64_t app_total_ = 0;  ///< bytes submitted by the application
  std::int64_t snd_una_ = 0;
  std::int64_t snd_nxt_ = 0;
  bool fin_sent_ = false;
  std::int64_t fin_seq_ = -1;
  sim::EventHandle rto_timer_;
  int rto_backoff_ = 0;
  int consecutive_rto_ = 0;
  std::uint64_t retransmit_count_ = 0;
  sim::Duration srtt_ = 0.0;
  sim::Duration rttvar_ = 0.0;
  std::int64_t rtt_seq_ = -1;  ///< cumulative-ack target of the live sample

  // --- receiver ---------------------------------------------------------------
  std::int64_t rcv_nxt_ = 0;

 private:
  Transport& transport_;
  std::uint64_t id_;
  Address peer_;
  Dscp dscp_;
  Listener* listener_;  ///< passive opens only
  bool closing_requested_ = false;
  sim::Time rtt_sent_at_ = 0.0;
  std::int64_t delivered_ = 0;
  bool peer_fin_ = false;
  std::int64_t peer_fin_seq_ = -1;
  sim::Bytes rx_buffered_ = 0;  ///< delivered before a handler existed
  RxHandler rx_handler_;
  std::vector<std::function<void()>> reset_handlers_;
  std::function<void()> eof_handler_;
  bool eof_signaled_ = false;
};

/// One host's endpoint table, which TcpStack and RdmaStack derive from:
/// endpoints by connection id, listeners by port. Node builds one stack per
/// configured transport, and the cluster wiring (core::Cluster::connect_*)
/// speaks only this.
class Transport {
 public:
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Active open toward (\p dst, \p port). The returned endpoint's
  /// established() gate opens when the handshake completes.
  virtual std::shared_ptr<Endpoint> connect(Address dst, std::uint16_t port,
                                            Dscp dscp = Dscp::kBestEffort) = 0;

  /// Passive open; one listener per port, created on first use.
  Listener& listen(std::uint16_t port) {
    auto& slot = listeners_[port];
    if (!slot) slot = std::make_unique<Listener>(engine_);
    return *slot;
  }

  [[nodiscard]] sim::Engine& engine() const { return engine_; }
  [[nodiscard]] TransportKind kind() const { return kind_; }
  [[nodiscard]] std::size_t open_connections() const {
    return endpoints_.size();
  }

 protected:
  Transport(sim::Engine& engine, TransportKind kind)
      : engine_(engine), kind_(kind) {}
  ~Transport() = default;

  /// Enter a new endpoint in the table under its connection id.
  void adopt(std::shared_ptr<Endpoint> ep) {
    const std::uint64_t id = ep->id();
    endpoints_[id] = std::move(ep);
  }

  /// Demultiplex: the endpoint registered under \p id, or null. The raw
  /// pointer stays valid while the segment is processed: teardown only
  /// schedules the erase (see remove).
  [[nodiscard]] Endpoint* find(std::uint64_t id) {
    auto it = endpoints_.find(id);
    return it == endpoints_.end() ? nullptr : it->value.get();
  }

  /// The listener on \p port, or null when nothing listens there.
  [[nodiscard]] Listener* listener_on(std::uint16_t port) {
    auto it = listeners_.find(port);
    return it == listeners_.end() ? nullptr : it->value.get();
  }

 private:
  friend class Endpoint;

  /// Erase \p id from the table. Deferred through the engine so that any
  /// in-flight processing of the endpoint finishes first.
  void remove(std::uint64_t id) {
    engine_.after(0.0, [this, id] { endpoints_.erase(id); });
  }

  sim::Engine& engine_;
  TransportKind kind_;
  sim::FlatMap<std::uint64_t, std::shared_ptr<Endpoint>> endpoints_;
  sim::FlatMap<std::uint16_t, std::unique_ptr<Listener>> listeners_;
};

inline Endpoint::Endpoint(Transport& transport, std::uint64_t id, Address peer,
                          Dscp dscp, std::uint16_t port, Listener* listener)
    : state_(listener == nullptr ? State::kConnecting : State::kAccepting),
      established_(transport.engine()),
      syn_port_(port),
      transport_(transport),
      id_(id),
      peer_(peer),
      dscp_(dscp),
      listener_(listener) {}

inline sim::Engine& Endpoint::engine() const { return transport_.engine(); }

inline void Endpoint::unregister() { transport_.remove(id_); }

inline void Endpoint::start_rtt_sample() {
  if (rtt_seq_ >= 0) return;
  rtt_seq_ = snd_nxt_;
  rtt_sent_at_ = engine().now();
}

inline bool Endpoint::sample_rtt(std::int64_t acked_to) {
  if (rtt_seq_ < 0 || acked_to < rtt_seq_) return false;
  const sim::Duration sample = engine().now() - rtt_sent_at_;
  if (srtt_ == 0.0) {
    srtt_ = sample;
    rttvar_ = sample / 2.0;
  } else {
    rttvar_ = 0.75 * rttvar_ + 0.25 * std::abs(srtt_ - sample);
    srtt_ = 0.875 * srtt_ + 0.125 * sample;
  }
  rtt_seq_ = -1;
  return true;
}

}  // namespace dclue::net
