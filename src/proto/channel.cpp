#include "proto/channel.hpp"

#include <cassert>
#include <mutex>

namespace dclue::proto {

MsgChannel::MsgChannel(std::shared_ptr<net::Endpoint> conn)
    : conn_(std::move(conn)) {
  // The mailbox needs an engine; every Endpoint exposes its stack's.
  inbox_ = std::make_shared<sim::Mailbox<Message>>(conn_->engine());
  in_flight_ = std::make_shared<sim::SpscQueue<Message>>();
  // The peer endpoint may live on another shard. Same-key insert/find pairs
  // are ordered by the connection handshake (the later endpoint constructs
  // at least one link lookahead after the earlier one published its
  // horizon); the mutex only guards the map structure against unrelated
  // connections pairing concurrently.
  MsgChannel* earlier = nullptr;
  {
    auto& board = conn_->engine().rendezvous();
    std::lock_guard<std::mutex> lock(board.mu);
    auto [it, inserted] = board.map.try_emplace(conn_->id(), this);
    if (!inserted) {
      earlier = static_cast<MsgChannel*>(it->value);
      board.map.erase(it);
    }
  }
  if (earlier != nullptr) pair_with(*earlier);
  conn_->set_rx_handler([this](sim::Bytes n) { on_bytes(n); });
  // A reset unblocks any coroutine waiting on the inbox. The weak_ptr keeps
  // a destroyed channel from being touched by a late reset.
  conn_->add_reset_handler(
      [weak = std::weak_ptr<sim::Mailbox<Message>>(inbox_)] {
        if (auto inbox = weak.lock()) {
          inbox->push(Message{kChannelReset, 0, nullptr, 0.0});
        }
      });
  conn_->set_eof_handler([weak = std::weak_ptr<sim::Mailbox<Message>>(inbox_)] {
    if (auto inbox = weak.lock()) {
      inbox->push(Message{kChannelClosed, 0, nullptr, 0.0});
    }
  });
}

void MsgChannel::pair_with(MsgChannel& earlier) {
  peer_in_flight_ = earlier.in_flight_;
  earlier.peer_in_flight_ = in_flight_;
  // Messages the earlier endpoint framed before pairing become in flight
  // now (they may already have arrived as bytes, so reprocess our byte
  // counter). This endpoint is still constructing and has framed nothing,
  // so the earlier one has nothing new to receive, and pairing never runs
  // its receive path (in a sharded run it lives on another shard, and as
  // the accepting side it cannot have sent before receiving).
  while (!earlier.out_pending_.empty()) {
    in_flight_->push(std::move(earlier.out_pending_.front()));
    earlier.out_pending_.pop_front();
  }
  on_bytes(0);
}

MsgChannel::~MsgChannel() {
  {
    auto& board = conn_->engine().rendezvous();
    std::lock_guard<std::mutex> lock(board.mu);
    board.map.erase(conn_->id());
  }
  // Never touch the peer: it may be live on another shard. Its sends into
  // our orphaned reassembly queue are kept alive by its shared_ptr and
  // simply go unread.
  conn_->set_rx_handler({});
}

void MsgChannel::send(Message msg) {
  assert(msg.bytes > 0);
  const sim::Bytes bytes = msg.bytes;
  msg.sent_at = conn_->engine().now();
  ++sent_;
  // Frame on the peer's reassembly queue (or hold until the peer endpoint
  // constructs, for sends racing the accept path), then push bytes into TCP.
  if (peer_in_flight_ != nullptr) {
    peer_in_flight_->push(std::move(msg));
  } else {
    out_pending_.push_back(std::move(msg));
  }
  conn_->send(bytes);
}

void MsgChannel::on_bytes(sim::Bytes n) {
  rx_pending_ += n;
  while (Message* front = in_flight_->peek()) {
    if (rx_pending_ < front->bytes) break;
    rx_pending_ -= front->bytes;
    ++received_;
    inbox_->push(std::move(*front));
    in_flight_->pop_front();
  }
}

}  // namespace dclue::proto
