#include "net/rdma.hpp"

#include <gtest/gtest.h>

#include "net/topology.hpp"
#include "sim/task.hpp"

namespace dclue::net {
namespace {

/// Two servers in one LATA with RDMA stacks. No CPU is wired at all: the
/// kernel-bypass datapath never charges one, so the harness doesn't need it.
struct Harness {
  sim::Engine engine;
  TopologyParams tp;
  std::unique_ptr<Topology> topo;
  std::unique_ptr<RdmaStack> a;
  std::unique_ptr<RdmaStack> b;

  explicit Harness(TopologyParams p = {}, RdmaParams rdma = {}) : tp(p) {
    tp.servers_per_lata = std::max(tp.servers_per_lata, 2);
    topo = std::make_unique<Topology>(engine, tp);
    a = std::make_unique<RdmaStack>(engine, topo->server_nic(0), rdma);
    b = std::make_unique<RdmaStack>(engine, topo->server_nic(1), rdma);
  }
};

TEST(Rdma, HandshakeEstablishesBothEnds) {
  Harness h;
  auto& listener = h.b->listen(5000);
  bool accepted = false;
  sim::spawn([](Listener& l, bool& ok) -> sim::Task<void> {
    auto conn = std::static_pointer_cast<RdmaConnection>(co_await l.accept());
    ok = conn->state() == RdmaConnection::State::kEstablished;
  }(listener, accepted));
  auto conn = h.a->connect(h.b->address(), 5000);
  bool connected = false;
  sim::spawn([](std::shared_ptr<Endpoint> c, bool& ok) -> sim::Task<void> {
    co_await c->established().wait();
    ok = true;
  }(conn, connected));
  h.engine.run();
  EXPECT_TRUE(connected);
  EXPECT_TRUE(accepted);
}

TEST(Rdma, DeliversExactByteCount) {
  Harness h;
  auto& listener = h.b->listen(5000);
  sim::Bytes received = 0;
  sim::spawn([](Listener& l, sim::Bytes& got) -> sim::Task<void> {
    auto conn = co_await l.accept();
    conn->set_rx_handler([&got](sim::Bytes n) { got += n; });
  }(listener, received));
  auto conn = h.a->connect(h.b->address(), 5000);
  conn->send(100'000);
  h.engine.run();
  EXPECT_EQ(received, 100'000);
}

TEST(Rdma, BulkTransferApproachesLineRate) {
  Harness h;
  auto& listener = h.b->listen(5000);
  sim::Bytes received = 0;
  sim::Time done = 0.0;
  sim::spawn([](Harness& h, Listener& l, sim::Bytes& got,
                sim::Time& done) -> sim::Task<void> {
    auto conn = co_await l.accept();
    conn->set_rx_handler([&](sim::Bytes n) {
      got += n;
      if (got >= 10'000'000) done = h.engine.now();
    });
  }(h, listener, received, done));
  auto conn = h.a->connect(h.b->address(), 5000);
  conn->send(10'000'000);
  h.engine.run();
  ASSERT_GT(done, 0.0);
  double rate = 10e6 * 8 / done;
  // 4 KB frames with 40 B headers and no slow start: ~1% overhead, so the
  // achieved rate should beat TCP's 60% bar by a wide margin.
  EXPECT_GT(rate, 0.9e9);
  EXPECT_LT(rate, 1.0e9);
}

TEST(Rdma, CreditWindowBoundsThroughputOverLongPath) {
  TopologyParams tp;
  tp.host_link_prop = sim::milliseconds(5);  // RTT ~20ms via 4 links
  Harness h(tp);
  auto& listener = h.b->listen(5000);
  sim::Bytes received = 0;
  sim::Time done = 0.0;
  sim::spawn([](Harness& h, Listener& l, sim::Bytes& got,
                sim::Time& done) -> sim::Task<void> {
    auto conn = co_await l.accept();
    conn->set_rx_handler([&](sim::Bytes n) {
      got += n;
      if (got >= 2'000'000) done = h.engine.now();
    });
  }(h, listener, received, done));
  auto conn = h.a->connect(h.b->address(), 5000);
  conn->send(2'000'000);
  h.engine.run();
  ASSERT_GT(done, 0.0);
  double rate = 2e6 * 8 / done;
  // 64 frames x 4 KB = 256 KB of credits over ~20ms RTT caps near 105 Mb/s;
  // the fixed window never grows past it (no congestion probing to open up).
  EXPECT_LT(rate, 140e6);
}

TEST(Rdma, CloseTearsDownBothStacks) {
  Harness h;
  auto& listener = h.b->listen(5000);
  bool eof_seen = false;
  sim::spawn([](Listener& l, bool& eof) -> sim::Task<void> {
    auto conn = co_await l.accept();
    conn->set_rx_handler([](sim::Bytes) {});
    conn->set_eof_handler([conn, &eof] {
      eof = true;
      conn->close();
    });
  }(listener, eof_seen));
  auto conn = h.a->connect(h.b->address(), 5000);
  conn->send(10'000);
  conn->close();  // FIN analog rides behind the last queued byte
  h.engine.run();
  EXPECT_TRUE(eof_seen);
  EXPECT_EQ(conn->state(), RdmaConnection::State::kClosed);
  EXPECT_EQ(h.a->open_connections(), 0u);
  EXPECT_EQ(h.b->open_connections(), 0u);
}

TEST(Rdma, GoBackNRecoversFromLoss) {
  Harness h;
  sim::Rng fault_rng(99);
  // Drop 2% of frames toward the receiver: every loss forces a PSN-gap NAK
  // and a rewind from the first unacked frame.
  h.topo->server_downlink(1).set_degradation(0.02, 0.0, 0.0, 0.0, &fault_rng);
  auto& listener = h.b->listen(5000);
  sim::Bytes received = 0;
  sim::spawn([](Listener& l, sim::Bytes& got) -> sim::Task<void> {
    auto conn = co_await l.accept();
    conn->set_rx_handler([&got](sim::Bytes n) { got += n; });
  }(listener, received));
  auto conn = h.a->connect(h.b->address(), 5000);
  conn->send(2'000'000);
  h.engine.run();
  EXPECT_EQ(received, 2'000'000);
  EXPECT_GT(conn->retransmits(), 0u);
}

TEST(Rdma, CorruptFramesAreDroppedAtFcsAndRecovered) {
  Harness h;
  sim::Rng fault_rng(7);
  // FCS-corrupt frames must be dropped by the NIC before transport demux —
  // the shared fault hook the issue requires both transports to ride.
  h.topo->server_downlink(1).set_degradation(0.0, 0.02, 0.0, 0.0, &fault_rng);
  auto& listener = h.b->listen(5000);
  sim::Bytes received = 0;
  sim::spawn([](Listener& l, sim::Bytes& got) -> sim::Task<void> {
    auto conn = co_await l.accept();
    conn->set_rx_handler([&got](sim::Bytes n) { got += n; });
  }(listener, received));
  auto conn = h.a->connect(h.b->address(), 5000);
  conn->send(1'000'000);
  h.engine.run();
  EXPECT_EQ(received, 1'000'000);
  EXPECT_GT(h.topo->server_downlink(1).fault_corrupts(), 0u);
}

TEST(Rdma, ResetAfterRetryBudget) {
  RdmaParams rdma;
  rdma.max_retransmits = 3;
  Harness h({}, rdma);
  auto conn = h.a->connect(h.b->address(), 4242);  // no listener
  bool reset = false;
  conn->add_reset_handler([&reset] { reset = true; });
  h.engine.run();
  EXPECT_TRUE(reset);
  EXPECT_EQ(conn->state(), RdmaConnection::State::kClosed);
  EXPECT_EQ(h.a->open_connections(), 0u);
}

TEST(Rdma, LinkDownResetsEstablishedConnection) {
  RdmaParams rdma;
  rdma.max_retransmits = 3;
  Harness h({}, rdma);
  auto& listener = h.b->listen(5000);
  sim::spawn([](Listener& l) -> sim::Task<void> {
    auto conn = co_await l.accept();
    conn->set_rx_handler([](sim::Bytes) {});
  }(listener));
  auto conn = h.a->connect(h.b->address(), 5000);
  bool reset = false;
  conn->add_reset_handler([&reset] { reset = true; });
  sim::spawn([](Harness& h, std::shared_ptr<Endpoint> c) -> sim::Task<void> {
    co_await c->established().wait();
    h.topo->server_uplink(0).set_link_down(true);
    c->send(1'000'000);  // all frames die on the downed uplink
  }(h, conn));
  h.engine.run();
  EXPECT_TRUE(reset);
  EXPECT_EQ(conn->state(), RdmaConnection::State::kClosed);
}

TEST(Rdma, DscpPropagatesToBothEndpoints) {
  Harness h;
  auto& listener = h.b->listen(5000);
  Dscp accepted_dscp = Dscp::kBestEffort;
  sim::spawn([](Listener& l, Dscp& out) -> sim::Task<void> {
    auto conn = co_await l.accept();
    out = conn->dscp();
  }(listener, accepted_dscp));
  auto conn = h.a->connect(h.b->address(), 5000, Dscp::kAF21);
  h.engine.run();
  EXPECT_EQ(conn->dscp(), Dscp::kAF21);
  EXPECT_EQ(accepted_dscp, Dscp::kAF21);
}

TEST(Rdma, StackCountersObserveTraffic) {
  Harness h;
  auto& listener = h.b->listen(5000);
  sim::Bytes received = 0;
  sim::spawn([](Listener& l, sim::Bytes& got) -> sim::Task<void> {
    auto conn = co_await l.accept();
    conn->set_rx_handler([&got](sim::Bytes n) { got += n; });
  }(listener, received));
  auto conn = h.a->connect(h.b->address(), 5000);
  conn->send(1'000'000);
  h.engine.run();
  // 1 MB at 4 KB/frame is ~245 data frames plus the connect exchange.
  EXPECT_GE(h.a->frames_sent(), 245u);
  EXPECT_GT(h.b->frames_received(), 0u);
  EXPECT_EQ(h.a->total_retransmits(), 0u);  // clean fabric: no rewinds
  EXPECT_EQ(conn->bytes_sent_acked(), 1'000'000);
}

}  // namespace
}  // namespace dclue::net
