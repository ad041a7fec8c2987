#include "proto/iscsi.hpp"

#include "cpu/processor.hpp"

namespace dclue::proto {
namespace {

/// Split a transfer into data PDUs and send them with per-PDU costs.
sim::Task<void> send_data_pdus(MsgChannel& channel, cpu::Processor* proc,
                               const IscsiCostModel& costs, std::uint64_t tag,
                               sim::Bytes total, std::uint32_t type) {
  sim::Bytes remaining = total;
  while (remaining > 0) {
    const sim::Bytes chunk = std::min(remaining, kIscsiMaxDataSegment);
    remaining -= chunk;
    co_await cpu::charge(
        proc, costs.per_pdu + static_cast<double>(chunk) * costs.per_byte_digest,
        cpu::JobClass::kKernel);
    Message msg;
    msg.type = type;
    msg.bytes = chunk + kIscsiHeaderBytes;
    msg.payload = std::make_shared<IscsiDataPayload>(
        IscsiDataPayload{tag, chunk, remaining == 0});
    channel.send(std::move(msg));
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Target
// ---------------------------------------------------------------------------

sim::DetachedTask IscsiTarget::serve_loop(std::shared_ptr<MsgChannel> channel) {
  for (;;) {
    Message msg = co_await channel->inbox().receive();
    if (msg.type >= kChannelClosed) co_return;  // session died; stop serving
    switch (msg.type) {
      case kIscsiCmd: {
        auto cmd = *std::static_pointer_cast<IscsiCmdPayload>(msg.payload);
        co_await cpu::charge(cpu_, costs_.per_command, cpu::JobClass::kKernel);
        if (cmd.is_write) {
          writes_[cmd.tag] = WriteAssembly{0, cmd};
        } else {
          handle_command(channel, cmd);
        }
        break;
      }
      case kIscsiDataOut: {
        auto data = *std::static_pointer_cast<IscsiDataPayload>(msg.payload);
        co_await cpu::charge(cpu_,
                             costs_.per_pdu + static_cast<double>(data.bytes) *
                                                  costs_.per_byte_digest,
                             cpu::JobClass::kKernel);
        auto it = writes_.find(data.tag);
        if (it == writes_.end()) break;
        it->value.received += data.bytes;
        if (it->value.received >= it->value.cmd.bytes) {
          IscsiCmdPayload cmd = it->value.cmd;
          writes_.erase(it);
          handle_command(channel, cmd);
        }
        break;
      }
      default:
        break;
    }
  }
}

sim::DetachedTask IscsiTarget::handle_command(std::shared_ptr<MsgChannel> channel,
                                              IscsiCmdPayload cmd) {
  // An injected IO error costs a full mechanical service round; the target
  // retries a bounded number of times, so storage faults surface to the
  // initiator purely as latency (the model carries no payload bytes — real
  // data lives in the shared in-memory database).
  constexpr int kMaxIoAttempts = 3;
  bool ok = false;
  for (int attempt = 0; attempt < kMaxIoAttempts && !ok; ++attempt) {
    if (attempt > 0) ++retries_;
    ok = cmd.is_write ? co_await disk_.write(cmd.block, cmd.bytes)
                      : co_await disk_.read(cmd.block, cmd.bytes);
  }
  if (!cmd.is_write) {
    co_await send_data_pdus(*channel, cpu_, costs_, cmd.tag, cmd.bytes,
                            kIscsiDataIn);
  }
  co_await cpu::charge(cpu_, costs_.per_command, cpu::JobClass::kKernel);
  Message status;
  status.type = kIscsiStatus;
  status.bytes = kIscsiHeaderBytes;
  status.payload = std::make_shared<IscsiStatusPayload>(IscsiStatusPayload{cmd.tag});
  channel->send(std::move(status));
  ++served_;
}

// ---------------------------------------------------------------------------
// Initiator
// ---------------------------------------------------------------------------

void IscsiInitiator::attach(std::shared_ptr<MsgChannel> channel) {
  channel_ = std::move(channel);
  channel_failed_ = false;
  reply_pump();
}

sim::Task<bool> IscsiInitiator::io(std::int64_t block, sim::Bytes bytes,
                                   bool is_write) {
  if (channel_failed_) {
    ++failed_ops_;
    co_return false;
  }
  const std::uint64_t tag = next_tag_++;
  auto gate = std::make_unique<sim::Gate>(engine_);
  sim::Gate* gate_ptr = gate.get();
  pending_[tag] = Pending{std::move(gate)};

  co_await cpu::charge(cpu_, costs_.per_command, cpu::JobClass::kKernel);
  Message cmd;
  cmd.type = kIscsiCmd;
  cmd.bytes = kIscsiHeaderBytes;
  cmd.payload = std::make_shared<IscsiCmdPayload>(
      IscsiCmdPayload{tag, block, bytes, is_write});
  channel_->send(std::move(cmd));
  if (is_write) {
    co_await send_data_pdus(*channel_, cpu_, costs_, tag, bytes, kIscsiDataOut);
  }
  co_await gate_ptr->wait();
  const auto it = pending_.find(tag);
  const bool ok = it == pending_.end() || !it->value.failed;
  if (it != pending_.end()) pending_.erase(it);
  if (ok) {
    ++completed_;
  } else {
    ++failed_ops_;
  }
  co_return ok;
}

sim::DetachedTask IscsiInitiator::reply_pump() {
  auto channel = channel_;
  for (;;) {
    Message msg = co_await channel->inbox().receive();
    if (msg.type >= kChannelClosed) {
      // Session channel reset/EOF: fail every in-flight op so waiters
      // resume instead of hanging on a dead connection.
      channel_failed_ = true;
      for (auto& [tag, p] : pending_) {
        p.failed = true;
        p.done->open();
      }
      co_return;
    }
    switch (msg.type) {
      case kIscsiDataIn: {
        auto data = *std::static_pointer_cast<IscsiDataPayload>(msg.payload);
        co_await cpu::charge(cpu_,
                             costs_.per_pdu + static_cast<double>(data.bytes) *
                                                  costs_.per_byte_digest,
                             cpu::JobClass::kKernel);
        break;
      }
      case kIscsiStatus: {
        auto status = *std::static_pointer_cast<IscsiStatusPayload>(msg.payload);
        co_await cpu::charge(cpu_, costs_.per_command, cpu::JobClass::kKernel);
        auto it = pending_.find(status.tag);
        if (it != pending_.end()) it->value.done->open();
        break;
      }
      default:
        break;
    }
  }
}

}  // namespace dclue::proto
