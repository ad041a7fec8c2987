#include "cluster/ipc.hpp"

#include "sim/obs/trace.hpp"

namespace dclue::cluster {

void IpcService::attach_peer(int peer, std::shared_ptr<proto::MsgChannel> channel) {
  peers_[peer] = channel;
  reader_loop(peer, std::move(channel));
}

void IpcService::send(int dst, IpcType type, sim::Bytes bytes,
                      std::shared_ptr<void> body, std::uint64_t req_id) {
  auto it = peers_.find(dst);
  if (it == peers_.end()) {
    // Peer channel gone (reset under a long outage). Dropping the send is the
    // crash-consistent behaviour: the waiter times out or is failed by the
    // fault path, never blocked on an unreachable peer.
    ++dropped_sends_;
    return;
  }
  if (type == kBlockTransfer) {
    stats_.ipc_data_sent.record();
    stats_.ipc_data_bytes.record(static_cast<std::uint64_t>(bytes));
  } else {
    stats_.ipc_control_sent.record();
    stats_.ipc_control_bytes.record(static_cast<std::uint64_t>(bytes));
  }
  sent_by_type_[static_cast<std::size_t>(type)].record();
  DCLUE_TRACE_INSTANT("ipc", ipc_type_name(type), engine_.now(),
                      static_cast<std::uint32_t>(node_id_));
  proto::Message msg;
  msg.type = type;
  msg.bytes = bytes;
  msg.payload = std::make_shared<Envelope>(
      Envelope{req_id, node_id_, std::move(body), scn_ != nullptr ? *scn_ : 0});
  it->value->send(std::move(msg));
}

sim::Task<std::shared_ptr<void>> IpcService::rpc(int dst, IpcType type,
                                                 std::shared_ptr<void> body) {
  const std::uint64_t id = new_req_id();
  send_control(dst, type, std::move(body), id);
  co_return co_await await_reply(id);
}

sim::Task<std::shared_ptr<void>> IpcService::await_reply(std::uint64_t req_id) {
  auto& slot = pending_[req_id];
  // The reply may already have arrived (3-way exchanges where the data
  // message from C can beat B's control reply back to us).
  if (slot.arrived) {
    auto body = std::move(slot.body);
    pending_.erase(req_id);
    co_return body;
  }
  slot.gate = std::make_unique<sim::Gate>(engine_);
  co_await slot.gate->wait();
  auto body = std::move(pending_[req_id].body);
  pending_.erase(req_id);
  co_return body;
}

sim::DetachedTask IpcService::reader_loop(int peer,
                                          std::shared_ptr<proto::MsgChannel> ch) {
  for (;;) {
    proto::Message msg = co_await ch->inbox().receive();
    if (msg.type >= proto::kChannelClosed) {
      // The paper avoids DBMS connection resets by raising the retransmission
      // limit (both transports follow suit); if one happens anyway, the peer
      // is gone.
      // Deliberately over-approximate: fail every in-flight exchange, not
      // just this peer's (correlation ids do not record the peer). Waiters
      // toward healthy peers take their degraded fallback once — safe,
      // deterministic, and resets are rare even under injected faults.
      fail_all_pending();
      peers_.erase(peer);
      co_return;
    }
    // Application-level IPC handling cost (the receive interrupts
    // application processing; TCP per-segment costs were already charged).
    co_await cpu::charge(cpu_, handler_pl_, cpu::JobClass::kKernel);
    // By type, as on the send side: a short block transfer (recovery's last
    // log chunk) is still data.
    if (msg.type != kBlockTransfer) {
      stats_.control_msg_delay.record(engine_.now() - msg.sent_at);
    }
    auto env = std::static_pointer_cast<Envelope>(msg.payload);
    if (scn_ != nullptr && env->scn > *scn_) *scn_ = env->scn;
    dispatch(std::move(*env), msg.type);
  }
}

std::size_t IpcService::fail_all_pending() {
  // Snapshot ids first: Gate::open defers resumption through the engine, but
  // waiters erase their own slots and may start new exchanges, so the map
  // must not be iterated while being mutated.
  std::vector<std::uint64_t> ids;
  ids.reserve(pending_.size());
  for (const auto& [id, slot] : pending_) ids.push_back(id);
  std::size_t failed = 0;
  for (const std::uint64_t id : ids) {
    auto it = pending_.find(id);
    if (it == pending_.end()) continue;
    Pending& slot = it->value;
    if (slot.gate) {
      // A parked waiter: resume it with a null body. The waiter erases the
      // slot when it runs.
      slot.body = nullptr;
      slot.arrived = true;
      slot.gate->open();
    } else {
      // Reply arrived before its await, or never will: the requester is
      // blocked inside another exchange of the same protocol step (which
      // this loop also fails), so it takes its fallback and never awaits
      // this id. Drop the slot.
      pending_.erase(it);
    }
    ++failed;
  }
  failed_rpcs_ += failed;
  return failed;
}

void IpcService::dispatch(Envelope env, std::uint32_t type) {
  switch (type) {
    case kDirReply:
    case kLockReply:
    case kLogFlushAck:
    case kBlockTransfer: {
      auto& slot = pending_[env.req_id];
      slot.body = std::move(env.body);
      slot.arrived = true;
      if (slot.gate) slot.gate->open();
      return;
    }
    default: {
      const auto slot = static_cast<std::size_t>(type);
      if (slot < kNumIpcTypes && handlers_[slot]) {
        handlers_[slot](std::move(env));
      }
      return;
    }
  }
}

}  // namespace dclue::cluster
