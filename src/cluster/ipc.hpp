#pragma once

/// \file ipc.hpp
/// Inter-node IPC for the clustered DBMS: typed control messages (~250 B, the
/// paper's figure) and block data messages (8 KB+) over the per-node-pair
/// transport connection (net::Endpoint — TCP on the paper's unified fabric,
/// or the kernel-bypass RDMA model), with request/response correlation.
/// Every message send and receive charges application-level handling path
/// length on the node's CPUs, on top of whatever per-segment costs the
/// configured transport charges — both the "overhead" the paper's Fig 11
/// measures (the RDMA model's per-segment cost is zero by construction).

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/node_stats.hpp"
#include "cpu/processor.hpp"
#include "proto/channel.hpp"
#include "sim/flat_map.hpp"
#include "sim/sync.hpp"

namespace dclue::cluster {

enum IpcType : std::uint32_t {
  kDirRequest = 1,
  kDirReply,
  kBlockForward,   ///< directory -> supplier: "send the block to requester"
  kBlockTransfer,  ///< supplier -> requester: the data message
  kDirConfirm,
  kDirEvict,
  kInvalidate,
  kLockAcquire,
  kLockReply,
  kLockRelease,
  kLogFlush,
  kLogFlushAck,
};

inline constexpr sim::Bytes kControlMsgBytes = 250;
inline constexpr sim::Bytes kBlockBaseBytes = 8192;

/// One slot per IpcType (values start at 1; slot 0 is unused).
inline constexpr std::size_t kNumIpcTypes = 13;

/// The counter/handler/name tables are all sized kNumIpcTypes; pin it to the
/// enum so adding a message type without growing them fails to compile.
static_assert(kNumIpcTypes == static_cast<std::size_t>(kLogFlushAck) + 1,
              "kNumIpcTypes must cover every IpcType (last value + 1); "
              "update it and ipc_type_name together");

[[nodiscard]] constexpr const char* ipc_type_name(std::uint32_t type) {
  switch (type) {
    case kDirRequest:    return "dir_request";
    case kDirReply:      return "dir_reply";
    case kBlockForward:  return "block_forward";
    case kBlockTransfer: return "block_transfer";
    case kDirConfirm:    return "dir_confirm";
    case kDirEvict:      return "dir_evict";
    case kInvalidate:    return "invalidate";
    case kLockAcquire:   return "lock_acquire";
    case kLockReply:     return "lock_reply";
    case kLockRelease:   return "lock_release";
    case kLogFlush:      return "log_flush";
    case kLogFlushAck:   return "log_flush_ack";
    default:             return "unknown";
  }
}

/// Correlation envelope carried by every IPC message.
struct Envelope {
  std::uint64_t req_id = 0;
  int src_node = -1;
  std::shared_ptr<void> body;
  /// Sender's commit-clock value at send time (Lamport piggyback). Sharded
  /// runs keep a per-node SCN instead of a shared counter; max-merging on
  /// receive preserves cross-node causality (a snapshot taken after hearing
  /// from a node observes that node's committed versions). In legacy runs
  /// both ends read the same counter and the merge is a no-op.
  std::uint64_t scn = 0;
};

class IpcService {
 public:
  /// Handler for incoming non-reply messages.
  using Handler = std::function<void(Envelope)>;

  /// Each received message charges \p handler_pl to this node's processor
  /// \p cpu (null in harnesses that do not model the CPU).
  IpcService(sim::Engine& engine, int node_id, core::NodeStats& stats,
             sim::PathLength handler_pl, cpu::Processor* cpu)
      : engine_(engine),
        node_id_(node_id),
        stats_(stats),
        handler_pl_(handler_pl),
        cpu_(cpu) {}

  /// Bind the channel toward \p peer and start its reader loop.
  void attach_peer(int peer, std::shared_ptr<proto::MsgChannel> channel);

  /// Point at the node's commit clock: sends stamp it into the envelope and
  /// receives max-merge the stamp back in (see Envelope::scn).
  void set_scn(std::uint64_t* scn) { scn_ = scn; }

  void set_handler(IpcType type, Handler handler) {
    handlers_[static_cast<std::size_t>(type)] = std::move(handler);
  }

  /// One-way control message (~250 B).
  void send_control(int dst, IpcType type, std::shared_ptr<void> body,
                    std::uint64_t req_id = 0) {
    send(dst, type, kControlMsgBytes, std::move(body), req_id);
  }

  /// One-way message of \p bytes. Only kBlockTransfer carries a block, so
  /// only it counts as a data message; every other type counts as control,
  /// whatever its size.
  void send(int dst, IpcType type, sim::Bytes bytes, std::shared_ptr<void> body,
            std::uint64_t req_id);

  /// Control RPC: send and await the correlated reply body.
  sim::Task<std::shared_ptr<void>> rpc(int dst, IpcType type,
                                       std::shared_ptr<void> body);

  /// Await an async reply routed by \p req_id (e.g. a 3-way block transfer
  /// where the data comes from a different node than the request went to).
  sim::Task<std::shared_ptr<void>> await_reply(std::uint64_t req_id);

  /// Allocate a correlation id for a multi-party exchange.
  std::uint64_t new_req_id() { return next_req_id_++; }

  /// Fail every in-flight request/response exchange: waiters resume with a
  /// null body (their degraded-path fallback); replies that arrived for
  /// exchanges whose waiter is itself being failed are discarded. Called on
  /// node crash (cluster-wide) and on an IPC channel reset. Returns the
  /// number of exchanges failed.
  std::size_t fail_all_pending();

  /// Drop a correlation id allocated for an exchange that was abandoned
  /// before its await (e.g. the setup RPC failed); keeps an early-arriving
  /// reply from parking in pending_ forever.
  void discard_reply(std::uint64_t req_id) { pending_.erase(req_id); }

  [[nodiscard]] std::uint64_t failed_rpcs() const { return failed_rpcs_; }
  [[nodiscard]] std::uint64_t dropped_sends() const { return dropped_sends_; }
  [[nodiscard]] std::size_t rpcs_pending() const { return pending_.size(); }

  [[nodiscard]] int node_id() const { return node_id_; }
  [[nodiscard]] bool connected_to(int peer) const {
    return peers_.contains(peer);
  }
  /// Bind the per-message-class send counters (the cache-fusion / lock /
  /// log traffic mix) under \p prefix ("node0.ipc.sent.").
  void register_metrics(obs::MetricsRegistry& reg, const std::string& prefix) {
    for (std::uint32_t t = 1; t < kNumIpcTypes; ++t) {
      reg.bind(prefix + ipc_type_name(t), &sent_by_type_[t]);
    }
  }

 private:
  sim::DetachedTask reader_loop(int peer, std::shared_ptr<proto::MsgChannel> ch);
  void dispatch(Envelope env, std::uint32_t type);

  struct Pending {
    std::unique_ptr<sim::Gate> gate;
    std::shared_ptr<void> body;
    bool arrived = false;
  };

  sim::Engine& engine_;
  int node_id_;
  core::NodeStats& stats_;
  sim::PathLength handler_pl_;
  cpu::Processor* cpu_;
  /// Hot-map convention (PR 5): flat open-addressing replaces unordered_map
  /// on the per-message paths. References are never held across inserts
  /// (await_reply re-looks-up after its await), so rehash moves are safe.
  sim::FlatMap<std::uint64_t, std::shared_ptr<proto::MsgChannel>> peers_;
  /// Dense dispatch: message types are a small closed enum, so a flat array
  /// replaces the hash lookup on every received non-reply message.
  std::array<Handler, kNumIpcTypes> handlers_;
  sim::FlatMap<std::uint64_t, Pending> pending_;
  std::uint64_t next_req_id_ = 1;
  std::uint64_t* scn_ = nullptr;
  std::array<obs::Counter, kNumIpcTypes> sent_by_type_;
  std::uint64_t failed_rpcs_ = 0;
  std::uint64_t dropped_sends_ = 0;
};

}  // namespace dclue::cluster
