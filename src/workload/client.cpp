#include "workload/client.hpp"

#include <stdexcept>
#include <string>

namespace dclue::workload {

ArrivalSpec parse_arrival_spec(std::string_view spec) {
  ArrivalSpec out;
  const std::size_t colon = spec.find(':');
  if (colon == std::string_view::npos) {
    throw std::invalid_argument("arrival spec needs KIND:RATE: " +
                                std::string(spec));
  }
  const std::string_view kind = spec.substr(0, colon);
  if (kind == "poisson") {
    out.kind = ArrivalSpec::Kind::kPoisson;
  } else if (kind == "fixed") {
    out.kind = ArrivalSpec::Kind::kFixed;
  } else {
    throw std::invalid_argument("unknown arrival kind: " + std::string(kind));
  }
  const std::string rate(spec.substr(colon + 1));
  try {
    out.rate = std::stod(rate);
  } catch (const std::exception&) {
    throw std::invalid_argument("bad arrival rate: " + rate);
  }
  if (!(out.rate > 0.0)) {
    throw std::invalid_argument("arrival rate must be positive: " + rate);
  }
  return out;
}

sim::DetachedTask YcsbFleet::arrival_loop() {
  sim::Rng rng = rngs_.stream(
      "ycsb-arrival", static_cast<std::uint64_t>(params_.host_index));
  if (params_.start_gate) co_await params_.start_gate->wait();
  const sim::Duration mean_gap = 1.0 / params_.arrival.rate;
  for (;;) {
    const sim::Duration gap = params_.arrival.kind == ArrivalSpec::Kind::kPoisson
                                  ? rng.exponential(mean_gap)
                                  : mean_gap;
    co_await sim::delay_for(engine_, gap);
    PendingOp p;
    p.op = gen_.next(engine_.now());
    p.server = partition_.route(rng, params_.affinity,
                                partition_.owner_of_ycsb_key(p.op.key));
    p.arrived = engine_.now();
    if (admission_.offer(p) == Admit::kNow) one_op(p);
  }
}

sim::DetachedTask YcsbFleet::one_op(PendingOp p) {
  auto conn = stack_.connect(
      params_.server_addrs[static_cast<std::size_t>(p.server)], kDbPort);
  auto channel = std::make_shared<proto::MsgChannel>(conn);
  co_await conn->established().wait();
  bool ok = !conn->closed();
  if (ok) {
    proto::Message req;
    req.type = kYcsbRequest;
    req.bytes = kYcsbRequestBytes;
    req.payload = std::make_shared<YcsbRequestBody>(YcsbRequestBody{p.op});
    channel->send(std::move(req));
    proto::Message reply = co_await channel->inbox().receive();
    if (reply.type >= proto::kChannelClosed) {
      ok = false;
    } else {
      // An op the server aborted is answered, but it did not complete.
      if (static_cast<const YcsbReplyBody*>(reply.payload.get())->committed) {
        ops_completed_.record();
        sojourn_.record(engine_.now() - p.arrived);
      }
      if (!conn->closed()) conn->close();
    }
  }
  if (!ok) ++conn_failures_;
  // Completion frees the admission slot; a queued arrival (if any) is
  // dispatched immediately with its original arrival time, so its queue
  // wait lands in the sojourn measurement.
  auto next = admission_.release();
  if (next) one_op(*next);
}

/// Safety valve for open-loop overload (the admission control the paper
/// says "needs to be in place"): arrivals beyond this many in-flight
/// business transactions are dropped.
constexpr int kMaxOpenLoopInflight = 400;

sim::DetachedTask TerminalFleet::open_loop_arrivals() {
  sim::Rng rng = rngs_.stream("open-loop",
                              static_cast<std::uint64_t>(params_.first_terminal_index));
  if (params_.start_gate) co_await params_.start_gate->wait();
  for (;;) {
    co_await sim::delay_for(engine_, rng.exponential(1.0 / params_.open_loop_rate));
    if (inflight_ >= kMaxOpenLoopInflight) {
      ++admission_drops_;
      continue;
    }
    // Arrivals cycle through the warehouse space like the terminal pool.
    const std::int64_t w =
        static_cast<std::int64_t>((params_.first_terminal_index + next_arrival_++) %
                                  static_cast<std::uint64_t>(partition_.warehouses())) +
        1;
    one_business_txn(
        w, partition_.route(rng, params_.affinity, partition_.owner_of_warehouse(w)));
  }
}

sim::DetachedTask TerminalFleet::one_business_txn(std::int64_t w, int server) {
  ++inflight_;
  TpccInputGenerator gen(
      scale_, rngs_.stream("open-gen", next_arrival_ * 131 +
                                           static_cast<std::uint64_t>(
                                               params_.first_terminal_index)));
  co_await business_txn(gen, w, server);
  --inflight_;
}

sim::DetachedTask TerminalFleet::terminal_loop(int t) {
  const int global_index = params_.first_terminal_index + t;
  sim::Rng rng = rngs_.stream("terminal", static_cast<std::uint64_t>(global_index));
  TpccInputGenerator gen(scale_,
                         rngs_.stream("terminal-gen",
                                      static_cast<std::uint64_t>(global_index)));
  // Fixed warehouse binding per the TPC-C terminal rules.
  const std::int64_t w = global_index % partition_.warehouses() + 1;
  const int home = partition_.owner_of_warehouse(w);

  if (params_.start_gate) co_await params_.start_gate->wait();
  for (;;) {
    co_await sim::delay_for(engine_, rng.exponential(params_.think_time));
    co_await business_txn(gen, w, partition_.route(rng, params_.affinity, home));
  }
}

sim::Task<void> TerminalFleet::business_txn(TpccInputGenerator& gen,
                                            std::int64_t w, int server) {
  auto conn = stack_.connect(params_.server_addrs[static_cast<std::size_t>(server)],
                             kDbPort);
  auto channel = std::make_shared<proto::MsgChannel>(conn);
  co_await conn->established().wait();
  if (conn->closed()) {
    ++conn_failures_;
    co_return;
  }
  for (const TxnInput& input : gen.business_transaction(w)) {
    proto::Message req;
    req.type = kClientRequest;
    req.bytes = kRequestBytes;
    req.payload = std::make_shared<ClientRequestBody>(ClientRequestBody{input});
    channel->send(std::move(req));
    proto::Message reply = co_await channel->inbox().receive();
    if (reply.type >= proto::kChannelClosed) {
      ++conn_failures_;
      co_return;
    }
  }
  ++completed_;
  if (!conn->closed()) conn->close();
}

}  // namespace dclue::workload
