#pragma once

/// \file client.hpp
/// Client hosts at the outer router, two flavors:
///   - TerminalFleet: closed-loop TPC-C terminal emulation. Each terminal is
///     bound to one warehouse and issues *business transactions* — a
///     sequence starting with a new-order — over a TCP connection
///     established per business transaction (§2.3), routed to the
///     warehouse's home server with probability `affinity` and to a
///     uniformly random server otherwise. (Plus the paper's open-loop
///     Poisson business-transaction mode.)
///   - YcsbFleet: open-loop keyed-op clients for the YCSB workload family.
///     Ops arrive by a configurable process (Poisson or fixed-rate),
///     queue through an AdmissionQueue when the in-service limit is hit,
///     and record end-to-end sojourn (queue wait + service) into a
///     histogram for p50/p99 reporting.

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "net/tcp.hpp"
#include "proto/channel.hpp"
#include "sim/rng.hpp"
#include "workload/admission.hpp"
#include "workload/tpcc_txn.hpp"
#include "workload/ycsb.hpp"

namespace dclue::workload {

enum ClientMsgType : std::uint32_t {
  kClientRequest = 300,
  kClientReply,
  kYcsbRequest,
  kYcsbReply,
};
inline constexpr sim::Bytes kRequestBytes = 300;
inline constexpr sim::Bytes kReplyBytes = 1200;
inline constexpr std::uint16_t kDbPort = 5432;
/// Keyed ops carry a small fixed request; replies are sized by the rows
/// returned (the node fills in kYcsbReplyBaseBytes + rows * row_bytes).
inline constexpr sim::Bytes kYcsbRequestBytes = 64;
inline constexpr sim::Bytes kYcsbReplyBaseBytes = 128;

struct ClientRequestBody {
  TxnInput input;
};
struct ClientReplyBody {
  bool committed = false;
};
struct YcsbRequestBody {
  YcsbOp op;
};
struct YcsbReplyBody {
  bool committed = false;
  int rows = 0;
};

/// Open-loop arrival process: "poisson:RATE" | "fixed:RATE" (RATE in ops per
/// scaled second; parse throws std::invalid_argument on malformed specs).
struct ArrivalSpec {
  enum class Kind : std::uint8_t { kPoisson, kFixed };
  Kind kind = Kind::kPoisson;
  double rate = 0.0;
};
[[nodiscard]] ArrivalSpec parse_arrival_spec(std::string_view spec);

struct TerminalFleetParams {
  int terminals = 0;
  int first_terminal_index = 0;  ///< global index base (warehouse binding)
  sim::Duration think_time = 0.0;  ///< scaled
  /// Open-loop mode (the paper's latency/QoS studies "do not place any
  /// bound on the number of threads"): business transactions arrive as a
  /// Poisson process at this rate (per fleet, scaled) regardless of
  /// completions. 0 = closed loop.
  double open_loop_rate = 0.0;
  /// Safety valve for open-loop overload (the admission control the paper
  /// says "needs to be in place"): arrivals beyond this many in-flight
  /// business transactions are dropped.
  int max_inflight = 400;
  double affinity = 1.0;
  std::int64_t warehouses = 1;
  int nodes = 1;
  std::vector<net::Address> server_addrs;  ///< indexed by node id
  std::function<int(std::int64_t)> owner_of_warehouse;
  sim::Gate* start_gate = nullptr;  ///< cluster-ready barrier
};

class TerminalFleet {
 public:
  TerminalFleet(sim::Engine& engine, net::TcpStack& stack, db::TpccScale scale,
                TerminalFleetParams params, sim::RngFactory rngs)
      : engine_(engine),
        stack_(stack),
        scale_(scale),
        params_(std::move(params)),
        rngs_(rngs) {}

  void start() {
    if (params_.open_loop_rate > 0.0) {
      open_loop_arrivals();
      return;
    }
    for (int t = 0; t < params_.terminals; ++t) terminal_loop(t);
  }

  [[nodiscard]] std::uint64_t business_txns_completed() const { return completed_; }
  [[nodiscard]] std::uint64_t connection_failures() const { return conn_failures_; }
  [[nodiscard]] std::uint64_t admission_drops() const { return admission_drops_; }
  [[nodiscard]] std::uint64_t arrivals() const { return next_arrival_; }
  [[nodiscard]] int inflight() const { return inflight_; }

 private:
  sim::DetachedTask terminal_loop(int t);
  sim::DetachedTask open_loop_arrivals();
  sim::DetachedTask one_business_txn(std::int64_t w, int server);
  /// One business transaction on its own connection to \p server: connect,
  /// then request/reply per transaction, then close. Counts the completion
  /// or the connection failure.
  sim::Task<void> business_txn(TpccInputGenerator& gen, std::int64_t w,
                               int server);

  sim::Engine& engine_;
  net::TcpStack& stack_;
  db::TpccScale scale_;
  TerminalFleetParams params_;
  sim::RngFactory rngs_;
  std::uint64_t completed_ = 0;
  std::uint64_t conn_failures_ = 0;
  std::uint64_t admission_drops_ = 0;
  int inflight_ = 0;
  std::uint64_t next_arrival_ = 0;
};

struct YcsbFleetParams {
  YcsbSpec spec;
  ArrivalSpec arrival;  ///< rate already divided down to this fleet's share
  /// Admission limit: ops in service on this host; arrivals beyond it queue
  /// (unbounded FIFO) and their queue wait counts toward sojourn.
  int max_inflight = 256;
  double affinity = 1.0;
  int nodes = 1;
  int host_index = 0;  ///< RNG stream index (one fleet per client host)
  std::vector<net::Address> server_addrs;  ///< indexed by node id
  std::function<int(std::int64_t)> owner_of_key;
  sim::Gate* start_gate = nullptr;  ///< cluster-ready barrier
};

/// Open-loop keyed-op clients for one host. Arrivals are generated by the
/// configured process regardless of completions (offered load is an input);
/// the admission queue bounds ops in service at max_inflight and holds the
/// overflow in FIFO order, so overload appears as queue depth and sojourn
/// growth, never as a throttled arrival process.
class YcsbFleet {
 public:
  YcsbFleet(sim::Engine& engine, net::TcpStack& stack, YcsbFleetParams params,
            sim::RngFactory rngs)
      : engine_(engine),
        stack_(stack),
        params_(std::move(params)),
        rngs_(rngs),
        gen_(params_.spec,
             rngs_.stream("ycsb-op",
                          static_cast<std::uint64_t>(params_.host_index)),
             rngs_.stream("ycsb-key",
                          static_cast<std::uint64_t>(params_.host_index))),
        admission_(params_.max_inflight) {}

  void start() { arrival_loop(); }

  /// Committed keyed ops (windowed: registry-bound, reset at warmup end).
  [[nodiscard]] obs::Counter& ops_completed() { return ops_completed_; }
  /// End-to-end sojourn per op, scaled seconds (queue wait + service).
  [[nodiscard]] obs::Histogram& sojourn() { return sojourn_; }
  [[nodiscard]] std::uint64_t arrivals() const { return admission_.arrivals(); }
  [[nodiscard]] std::uint64_t admission_drops() const {
    return admission_.drops();
  }
  [[nodiscard]] std::uint64_t connection_failures() const {
    return conn_failures_;
  }
  [[nodiscard]] int inflight() const { return admission_.inflight(); }
  [[nodiscard]] std::size_t queue_depth() const { return admission_.depth(); }
  [[nodiscard]] std::size_t queue_max_depth() const {
    return admission_.max_depth();
  }

 private:
  struct PendingOp {
    YcsbOp op;
    int server = 0;
    sim::Time arrived = 0.0;
  };

  sim::DetachedTask arrival_loop();
  sim::DetachedTask one_op(PendingOp p);

  sim::Engine& engine_;
  net::TcpStack& stack_;
  YcsbFleetParams params_;
  sim::RngFactory rngs_;
  YcsbOpGenerator gen_;
  AdmissionQueue<PendingOp> admission_;
  std::uint64_t conn_failures_ = 0;
  obs::Counter ops_completed_;
  /// 0..60 scaled seconds (0..600 ms unscaled at scale 100), 0.2 ms bins.
  obs::Histogram sojourn_{0.0, 60.0, 3000};
};

}  // namespace dclue::workload
