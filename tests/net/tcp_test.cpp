#include "net/tcp.hpp"

#include <gtest/gtest.h>

#include "net/topology.hpp"
#include "sim/task.hpp"

namespace dclue::net {
namespace {

/// Two servers in one LATA with TCP stacks and a free (infinite) CPU.
struct Harness {
  sim::Engine engine;
  TopologyParams tp;
  std::unique_ptr<Topology> topo;
  std::unique_ptr<TcpStack> a;
  std::unique_ptr<TcpStack> b;

  explicit Harness(TopologyParams p = {}, TcpParams tcp = {}) : tp(p) {
    tp.servers_per_lata = std::max(tp.servers_per_lata, 2);
    topo = std::make_unique<Topology>(engine, tp);
    a = std::make_unique<TcpStack>(engine, topo->server_nic(0), tcp,
                                   TcpCostModel{}, nullptr);
    b = std::make_unique<TcpStack>(engine, topo->server_nic(1), tcp,
                                   TcpCostModel{}, nullptr);
  }
};

TEST(Tcp, HandshakeEstablishesBothEnds) {
  Harness h;
  auto& listener = h.b->listen(5000);
  bool accepted = false;
  sim::spawn([](Listener& l, bool& ok) -> sim::Task<void> {
    auto conn = std::static_pointer_cast<TcpConnection>(co_await l.accept());
    ok = conn->state() == TcpConnection::State::kEstablished;
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

TEST(Tcp, DeliversExactByteCount) {
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

TEST(Tcp, LargeTransferApproachesLinkRate) {
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
  // Two hops of 1 Gb/s with header overhead: expect > 60% of line rate.
  EXPECT_GT(rate, 0.6e9);
  EXPECT_LT(rate, 1.0e9);
}

TEST(Tcp, ReceiveWindowBoundsThroughputOverLongPath) {
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
  // 64KB window over ~20ms RTT caps around 26 Mb/s; allow slack.
  EXPECT_LT(rate, 40e6);
}

TEST(Tcp, RecoversFromTailDrops) {
  TopologyParams tp;
  tp.qos.queue_limit_bytes = {sim::kilobytes(8), sim::kilobytes(8)};
  tp.qos.ecn_mark_threshold_bytes = 0;  // force drops, not marks
  Harness h(tp);
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
  EXPECT_GT(h.topo->total_drops(), 0u);
  EXPECT_GT(h.a->total_retransmits(), 0u);
}

TEST(Tcp, EcnAvoidsDropsOnCongestion) {
  TopologyParams tp;
  tp.qos.queue_limit_bytes = {sim::kilobytes(64), sim::kilobytes(64)};
  tp.qos.ecn_mark_threshold_bytes = sim::kilobytes(16);
  Harness h(tp);
  auto& listener = h.b->listen(5000);
  sim::Bytes received = 0;
  sim::spawn([](Listener& l, sim::Bytes& got) -> sim::Task<void> {
    auto conn = co_await l.accept();
    conn->set_rx_handler([&got](sim::Bytes n) { got += n; });
  }(listener, received));
  auto conn = h.a->connect(h.b->address(), 5000);
  conn->send(5'000'000);
  h.engine.run();
  EXPECT_EQ(received, 5'000'000);
}

TEST(Tcp, CloseTearsDownBothStacks) {
  Harness h;
  auto& listener = h.b->listen(5000);
  sim::spawn([](Listener& l) -> sim::Task<void> {
    auto conn = co_await l.accept();
    conn->set_rx_handler([](sim::Bytes) {});
    conn->close();
  }(listener));
  auto conn = h.a->connect(h.b->address(), 5000);
  conn->send(10'000);
  sim::spawn([](std::shared_ptr<TcpConnection> c) -> sim::Task<void> {
    co_await c->wait_all_acked();
    c->close();
  }(std::static_pointer_cast<TcpConnection>(conn)));
  h.engine.run();
  EXPECT_EQ(conn->state(), TcpConnection::State::kClosed);
  EXPECT_EQ(h.a->open_connections(), 0u);
  EXPECT_EQ(h.b->open_connections(), 0u);
}

TEST(Tcp, SequentialConnectionChurnDoesNotLeak) {
  Harness h;
  auto& listener = h.b->listen(21);
  // Echo-less sink server: accept, read, close on FIN.
  sim::spawn([](Listener& l) -> sim::Task<void> {
    for (;;) {
      auto conn = co_await l.accept();
      conn->set_rx_handler([](sim::Bytes) {});
      conn->close();
    }
  }(listener));
  int completed = 0;
  sim::spawn([](Harness& h, int& completed) -> sim::Task<void> {
    for (int i = 0; i < 20; ++i) {
      auto conn = std::static_pointer_cast<TcpConnection>(
          h.a->connect(h.b->address(), 21));
      co_await conn->established().wait();
      conn->send(50'000);
      co_await conn->wait_all_acked();
      conn->close();
      ++completed;
    }
  }(h, completed));
  h.engine.run();
  EXPECT_EQ(completed, 20);
  EXPECT_LE(h.a->open_connections(), 1u);
  EXPECT_LE(h.b->open_connections(), 1u);
}

TEST(Tcp, WaitAllAckedReleasesAfterDelivery) {
  Harness h;
  auto& listener = h.b->listen(5000);
  sim::spawn([](Listener& l) -> sim::Task<void> {
    auto conn = co_await l.accept();
    conn->set_rx_handler([](sim::Bytes) {});
  }(listener));
  auto conn = h.a->connect(h.b->address(), 5000);
  bool acked = false;
  conn->send(100'000);
  sim::spawn([](std::shared_ptr<TcpConnection> c, bool& acked) -> sim::Task<void> {
    co_await c->wait_all_acked();
    acked = c->bytes_sent_acked() >= 100'000;
  }(std::static_pointer_cast<TcpConnection>(conn), acked));
  h.engine.run();
  EXPECT_TRUE(acked);
}

TEST(Tcp, TwoSimultaneousConnectionsShareFairly) {
  TopologyParams tp;
  tp.servers_per_lata = 3;
  Harness h(tp);
  auto c_stack = std::make_unique<TcpStack>(h.engine, h.topo->server_nic(2),
                                            TcpParams{}, TcpCostModel{}, nullptr);
  auto& listener = h.b->listen(5000);
  std::array<sim::Bytes, 2> got{};
  sim::spawn([](Listener& l, std::array<sim::Bytes, 2>& got) -> sim::Task<void> {
    for (int i = 0; i < 2; ++i) {
      auto conn = co_await l.accept();
      auto* slot = &got[i];
      conn->set_rx_handler([slot](sim::Bytes n) { *slot += n; });
    }
  }(listener, got));
  auto c1 = h.a->connect(h.b->address(), 5000);
  auto c2 = c_stack->connect(h.b->address(), 5000);
  c1->send(3'000'000);
  c2->send(3'000'000);
  h.engine.run();
  EXPECT_EQ(got[0] + got[1], 6'000'000);
}

TEST(Tcp, ResetAfterRetransmissionLimit) {
  // Connect to an address with no listener-side network: drop everything by
  // using a tiny queue on the victim's links is complex; instead connect to a
  // port nobody listens on — SYN is ignored, RTOs accumulate, reset fires.
  TcpParams tcp;
  tcp.max_retransmits = 3;
  Harness h({}, tcp);
  auto conn = h.a->connect(h.b->address(), 4242);  // no listener
  bool reset = false;
  conn->add_reset_handler([&reset] { reset = true; });
  h.engine.run();
  EXPECT_TRUE(reset);
  EXPECT_EQ(conn->state(), TcpConnection::State::kClosed);
  EXPECT_EQ(h.a->open_connections(), 0u);
}

}  // namespace
}  // namespace dclue::net
