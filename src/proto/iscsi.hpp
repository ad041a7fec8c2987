#pragma once

/// \file iscsi.hpp
/// iSCSI over the unified fabric. Each server node runs a target exporting
/// its local disks; remote nodes access them through initiators over a
/// dedicated transport session per node pair (the paper keeps IPC and
/// storage on separate connections "to allow QoS studies that treat IPC and
/// storage separately"; the session rides whichever net::Transport the
/// cluster is configured onto). Software iSCSI pays the paper's dominant
/// cost — CRC digest calculation per byte — while the HW mode models full
/// offload.

#include <cstdint>
#include <memory>

#include "net/transport.hpp"
#include "proto/channel.hpp"
#include "sim/flat_map.hpp"
#include "sim/sync.hpp"
#include "storage/disk_array.hpp"

namespace dclue::cpu {
class Processor;
}  // namespace dclue::cpu

namespace dclue::proto {

inline constexpr sim::Bytes kIscsiHeaderBytes = 48;
inline constexpr sim::Bytes kIscsiMaxDataSegment = 8192;

enum IscsiMsgType : std::uint32_t {
  kIscsiCmd = 100,
  kIscsiDataIn,
  kIscsiDataOut,
  kIscsiStatus,
};

struct IscsiCostModel {
  sim::PathLength per_command = 0.0;  ///< build/parse a command or status PDU
  sim::PathLength per_pdu = 0.0;      ///< per data PDU handling
  double per_byte_digest = 0.0;       ///< SW CRC32C over data segments

  static IscsiCostModel hardware() { return {400.0, 300.0, 0.0}; }
  static IscsiCostModel software() { return {3'000.0, 1'500.0, 0.5}; }
};

struct IscsiCmdPayload {
  std::uint64_t tag = 0;
  std::int64_t block = 0;
  sim::Bytes bytes = 0;
  bool is_write = false;
};
struct IscsiDataPayload {
  std::uint64_t tag = 0;
  sim::Bytes bytes = 0;
  bool final_pdu = false;
};
struct IscsiStatusPayload {
  std::uint64_t tag = 0;
};

/// Target side: serves commands arriving on a channel against a local disk,
/// charging its protocol costs to the host's processor \p cpu (null on a
/// host whose CPU is not modeled).
class IscsiTarget {
 public:
  IscsiTarget(sim::Engine& engine, storage::BlockDevice& disk,
              cpu::Processor* cpu, IscsiCostModel costs)
      : engine_(engine), disk_(disk), cpu_(cpu), costs_(costs) {}

  /// Start serving a session channel (one per remote initiator).
  void serve(std::shared_ptr<MsgChannel> channel) { serve_loop(std::move(channel)); }

  [[nodiscard]] std::uint64_t commands_served() const { return served_; }
  /// Disk ops re-issued after an injected IO error (each retry pays full
  /// mechanical service time, so storage faults surface as latency).
  [[nodiscard]] std::uint64_t io_retries() const { return retries_; }

 private:
  sim::DetachedTask serve_loop(std::shared_ptr<MsgChannel> channel);
  sim::DetachedTask handle_command(std::shared_ptr<MsgChannel> channel,
                                   IscsiCmdPayload cmd);

  struct WriteAssembly {
    sim::Bytes received = 0;
    IscsiCmdPayload cmd;
  };

  sim::Engine& engine_;
  storage::BlockDevice& disk_;
  cpu::Processor* cpu_;
  IscsiCostModel costs_;
  sim::FlatMap<std::uint64_t, WriteAssembly> writes_;
  std::uint64_t served_ = 0;
  std::uint64_t retries_ = 0;
};

/// Initiator side: awaitable remote block IO over a session channel, with
/// protocol costs charged as IscsiTarget's are.
class IscsiInitiator {
 public:
  IscsiInitiator(sim::Engine& engine, cpu::Processor* cpu, IscsiCostModel costs)
      : engine_(engine), cpu_(cpu), costs_(costs) {}

  /// Bind to the session channel toward one target and start the reply pump.
  void attach(std::shared_ptr<MsgChannel> channel);

  /// Awaitable remote IO; false means the session channel died underneath
  /// the op (callers fall back to local IO or abort the transaction).
  sim::Task<bool> read(std::int64_t block, sim::Bytes bytes) {
    return io(block, bytes, false);
  }
  sim::Task<bool> write(std::int64_t block, sim::Bytes bytes) {
    return io(block, bytes, true);
  }

  [[nodiscard]] std::uint64_t ops_completed() const { return completed_; }
  [[nodiscard]] std::size_t ops_pending() const { return pending_.size(); }
  [[nodiscard]] std::uint64_t failed_ops() const { return failed_ops_; }

 private:
  struct Pending {
    std::unique_ptr<sim::Gate> done;
    bool failed = false;
  };

  sim::Task<bool> io(std::int64_t block, sim::Bytes bytes, bool is_write);
  sim::DetachedTask reply_pump();

  sim::Engine& engine_;
  cpu::Processor* cpu_;
  IscsiCostModel costs_;
  std::shared_ptr<MsgChannel> channel_;
  sim::FlatMap<std::uint64_t, Pending> pending_;
  std::uint64_t next_tag_ = 1;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ops_ = 0;
  bool channel_failed_ = false;  ///< session channel saw reset/EOF
};

}  // namespace dclue::proto
