#pragma once

/// \file channel.hpp
/// Message framing over a transport byte stream (net::Endpoint — TCP or the
/// kernel-bypass RDMA model, see net/transport.hpp). The fabric moves byte
/// counts; message *meaning* (typed payloads) rides a simulator side-band
/// that is paired per connection — legitimate because every transport
/// delivers the byte stream reliably and in order, so the Nth framed message
/// on the wire is always the Nth message handed to the peer.

#include <cstdint>
#include <deque>
#include <memory>

#include "net/transport.hpp"
#include "sim/shard.hpp"
#include "sim/sync.hpp"

namespace dclue::proto {

/// Sentinel message type delivered to a channel's inbox when its underlying
/// connection resets; consumers must check for it to avoid waiting forever.
inline constexpr std::uint32_t kChannelReset = 0xffffffff;
/// Sentinel delivered when the peer cleanly closed (EOF received).
inline constexpr std::uint32_t kChannelClosed = 0xfffffffe;

struct Message {
  std::uint32_t type = 0;
  sim::Bytes bytes = 0;             ///< on-wire payload size
  std::shared_ptr<void> payload;    ///< typed content for the receiver
  sim::Time sent_at = 0.0;          ///< for end-to-end delay accounting
};

/// One endpoint of a message channel. Construct one on each side of an
/// established transport connection; endpoints find each other by connection
/// id (unique per engine regardless of which transport minted it).
class MsgChannel {
 public:
  explicit MsgChannel(std::shared_ptr<net::Endpoint> conn);
  ~MsgChannel();
  MsgChannel(const MsgChannel&) = delete;
  MsgChannel& operator=(const MsgChannel&) = delete;

  /// Queue \p msg for transmission; bytes flow through the transport with
  /// everything that implies (flow control, loss recovery, priority queuing
  /// of the connection's DSCP).
  void send(Message msg);

  /// Received, fully-reassembled messages.
  [[nodiscard]] sim::Mailbox<Message>& inbox() { return *inbox_; }

  [[nodiscard]] net::Endpoint& endpoint() { return *conn_; }
  [[nodiscard]] std::uint64_t messages_sent() const { return sent_; }
  [[nodiscard]] std::uint64_t messages_received() const { return received_; }

 private:
  void on_bytes(sim::Bytes n);
  /// Pair with the other endpoint of this connection, which constructed
  /// earlier. Connection ids are unique within a run, so the two endpoints
  /// meet on the engine's rendezvous board (the run-wide one when sharded).
  void pair_with(MsgChannel& earlier);

  std::shared_ptr<net::Endpoint> conn_;
  std::shared_ptr<sim::Mailbox<Message>> inbox_;
  /// Messages the peer has framed to us. A single-producer queue (the peer's
  /// sends) held by shared_ptr: the peer may live on another shard, and the
  /// queue must survive whichever endpoint dies first. The peer's pushes are
  /// ordered against our pops by the conservative window protocol (the
  /// framed bytes take at least the boundary lookahead to arrive, and
  /// horizons publish with release/acquire).
  std::shared_ptr<sim::SpscQueue<Message>> in_flight_;
  std::shared_ptr<sim::SpscQueue<Message>> peer_in_flight_;  ///< send target
  std::deque<Message> out_pending_;  ///< framed before the peer endpoint existed
  sim::Bytes rx_pending_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
};

}  // namespace dclue::proto
