/// Deeper TCP behaviour tests: congestion dynamics, timer scaling, ECN
/// negotiation and the delayed-ack machinery — behaviours the experiments
/// lean on (the paper's Fig 11/14 stories live in this code).

#include <gtest/gtest.h>

#include "net/tcp.hpp"
#include "net/topology.hpp"

namespace dclue::net {
namespace {

struct Harness {
  sim::Engine engine;
  std::unique_ptr<Topology> topo;
  std::unique_ptr<TcpStack> a;
  std::unique_ptr<TcpStack> b;

  explicit Harness(TopologyParams tp = {}, TcpParams tcp = {}) {
    tp.servers_per_lata = std::max(tp.servers_per_lata, 2);
    topo = std::make_unique<Topology>(engine, tp);
    a = std::make_unique<TcpStack>(engine, topo->server_nic(0), tcp,
                                   TcpCostModel{}, nullptr);
    b = std::make_unique<TcpStack>(engine, topo->server_nic(1), tcp,
                                   TcpCostModel{}, nullptr);
  }

  std::shared_ptr<Endpoint> transfer(sim::Bytes bytes, sim::Bytes& received) {
    auto& listener = b->listen(5000);
    sim::spawn([](Listener& l, sim::Bytes& got) -> sim::Task<void> {
      auto conn = co_await l.accept();
      conn->set_rx_handler([&got](sim::Bytes n) { got += n; });
    }(listener, received));
    auto conn = a->connect(b->address(), 5000);
    conn->send(bytes);
    return conn;
  }
};

TEST(TcpBehavior, SlowStartRampsBeforeSteadyState) {
  // On a long-RTT path, a small transfer takes multiple round trips because
  // cwnd starts at 2 MSS (the handshake + doubling shape of slow start).
  TopologyParams tp;
  tp.host_link_prop = sim::milliseconds(10);  // RTT ~40ms via 4 links
  Harness h(tp);
  sim::Bytes received = 0;
  h.transfer(20'000, received);
  h.engine.run();
  EXPECT_EQ(received, 20'000);
  // 20000B at MSS 1460 and initial cwnd 2: >= 3 RTTs of 40ms + handshake.
  EXPECT_GT(h.engine.now(), 0.12);
}

TEST(TcpBehavior, TimerScalingShortensRecovery) {
  // The paper divides TCP timer values by 100 for the data center: a lossy
  // transfer recovers proportionally faster with the scaled timers.
  auto run_with_scale = [](double timer_scale) {
    TopologyParams tp;
    tp.qos.queue_limit_bytes = {sim::kilobytes(6), sim::kilobytes(6)};
    TcpParams tcp;
    tcp.timer_scale = timer_scale;
    Harness h(tp, tcp);
    sim::Bytes received = 0;
    h.transfer(500'000, received);
    h.engine.run();
    EXPECT_EQ(received, 500'000);
    return h.engine.now();
  };
  const double fast = run_with_scale(0.01);
  const double slow = run_with_scale(1.0);
  EXPECT_LT(fast, slow);
}

TEST(TcpBehavior, EcnMarkingReducesDropsVersusTailDrop) {
  auto run = [](sim::Bytes mark_threshold, std::uint64_t& drops,
                std::uint64_t& retx) {
    TopologyParams tp;
    tp.qos.queue_limit_bytes = {sim::kilobytes(24), sim::kilobytes(24)};
    tp.qos.ecn_mark_threshold_bytes = mark_threshold;
    Harness h(tp);
    sim::Bytes received = 0;
    h.transfer(2'000'000, received);
    h.engine.run();
    EXPECT_EQ(received, 2'000'000);
    drops = h.topo->total_drops();
    retx = h.a->total_retransmits();
  };
  std::uint64_t drops_ecn = 0, retx_ecn = 0, drops_td = 0, retx_td = 0;
  run(sim::kilobytes(8), drops_ecn, retx_ecn);
  run(0, drops_td, retx_td);
  EXPECT_LT(drops_ecn + retx_ecn, drops_td + retx_td);
}

TEST(TcpBehavior, AcksAreDelayedNotPerSegment) {
  Harness h;
  sim::Bytes received = 0;
  h.transfer(300'000, received);
  h.engine.run();
  EXPECT_EQ(received, 300'000);
  // ~206 data segments; delayed ack coalesces roughly 2:1, so B's total
  // segments (SYN|ACK + acks + FIN handling) should be well under the data
  // count.
  EXPECT_LT(h.b->segments_sent(), h.a->segments_sent() * 3 / 4);
}

TEST(TcpBehavior, ManySmallMessagesAreSegmentEfficient) {
  Harness h;
  auto& listener = h.b->listen(5000);
  sim::Bytes received = 0;
  sim::spawn([](Listener& l, sim::Bytes& got) -> sim::Task<void> {
    auto conn = co_await l.accept();
    conn->set_rx_handler([&got](sim::Bytes n) { got += n; });
  }(listener, received));
  auto conn = h.a->connect(h.b->address(), 5000);
  sim::spawn([](sim::Engine& e, std::shared_ptr<Endpoint> c) -> sim::Task<void> {
    co_await c->established().wait();
    for (int i = 0; i < 100; ++i) {
      c->send(250);  // control-message sized
      co_await sim::delay_for(e, 1e-4);
    }
  }(h.engine, conn));
  h.engine.run();
  EXPECT_EQ(received, 25'000);
  // One segment per 250B message (no pathological fragmentation).
  EXPECT_LE(h.a->segments_sent(), 115u);
}

TEST(TcpBehavior, ConcurrentConnectionsKeepIndependentStreams) {
  Harness h;
  auto& listener = h.b->listen(5000);
  std::array<sim::Bytes, 4> got{};
  sim::spawn([](Listener& l, std::array<sim::Bytes, 4>& got) -> sim::Task<void> {
    for (int i = 0; i < 4; ++i) {
      auto conn = co_await l.accept();
      auto* slot = &got[static_cast<std::size_t>(i)];
      conn->set_rx_handler([slot](sim::Bytes n) { *slot += n; });
    }
  }(listener, got));
  std::array<std::shared_ptr<Endpoint>, 4> conns;
  for (int i = 0; i < 4; ++i) {
    conns[static_cast<std::size_t>(i)] = h.a->connect(h.b->address(), 5000);
    conns[static_cast<std::size_t>(i)]->send((i + 1) * 10'000);
  }
  h.engine.run();
  for (int i = 0; i < 4; ++i) {
    // Streams are demultiplexed by arrival order at the listener; totals
    // must be a permutation of the sent sizes and sum exactly.
  }
  sim::Bytes total = 0;
  for (auto g : got) total += g;
  EXPECT_EQ(total, 10'000 + 20'000 + 30'000 + 40'000);
}

TEST(TcpBehavior, RetransmitsRecoverExactByteCountUnderHeavyLoss) {
  TopologyParams tp;
  tp.qos.queue_limit_bytes = {sim::kilobytes(4), sim::kilobytes(4)};  // brutal
  Harness h(tp);
  sim::Bytes received = 0;
  h.transfer(1'000'000, received);
  h.engine.run();
  EXPECT_EQ(received, 1'000'000);
  EXPECT_GT(h.a->total_retransmits(), 10u);
}

TEST(TcpBehavior, SegmentationMatchesMss) {
  Harness h;
  sim::Bytes received = 0;
  h.transfer(146'000, received);  // exactly 100 MSS
  h.engine.run();
  EXPECT_EQ(received, 146'000);
  // 100 data segments plus SYN/FIN bookkeeping; no over-fragmentation.
  EXPECT_GE(h.a->segments_sent(), 100u);
  EXPECT_LE(h.a->segments_sent(), 110u);
  // Every segment traversed the inner router (both directions).
  EXPECT_GE(h.topo->inner_router(0).forwarded().count(),
            h.a->segments_sent() + h.b->segments_sent());
}

}  // namespace
}  // namespace dclue::net
