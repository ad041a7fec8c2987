/// Message framing edge cases: partial delivery timing, interleaved sizes,
/// and pairing across the accept race.

#include <gtest/gtest.h>

#include "net/tcp.hpp"
#include "net/topology.hpp"
#include "proto/channel.hpp"

namespace dclue::proto {
namespace {

struct Harness {
  sim::Engine engine;
  std::unique_ptr<net::Topology> topo;
  std::unique_ptr<net::TcpStack> a;
  std::unique_ptr<net::TcpStack> b;

  explicit Harness(net::TopologyParams tp = {}) {
    tp.servers_per_lata = 2;
    topo = std::make_unique<net::Topology>(engine, tp);
    a = std::make_unique<net::TcpStack>(engine, topo->server_nic(0),
                                        net::TcpParams{}, net::TcpCostModel{},
                                        nullptr);
    b = std::make_unique<net::TcpStack>(engine, topo->server_nic(1),
                                        net::TcpParams{}, net::TcpCostModel{},
                                        nullptr);
  }
};

TEST(ChannelFraming, LargeMessageDeliveredOnlyWhenComplete) {
  // On a slow link, a multi-segment message must not surface until its last
  // byte arrives: receive time tracks the full serialization time.
  net::TopologyParams tp;
  tp.host_link_rate = sim::mbps(10);
  Harness h(tp);
  auto& listener = h.b->listen(9100);
  std::shared_ptr<MsgChannel> server;
  sim::spawn([](net::Listener& l, std::shared_ptr<MsgChannel>& out) -> sim::Task<void> {
    auto conn = co_await l.accept();
    out = std::make_shared<MsgChannel>(conn);
  }(listener, server));
  auto conn = h.a->connect(h.b->address(), 9100);
  auto client = std::make_shared<MsgChannel>(conn);

  sim::Time small_at = 0.0, big_at = 0.0;
  sim::spawn([](std::shared_ptr<net::Endpoint> conn,
                std::shared_ptr<MsgChannel> client) -> sim::Task<void> {
    co_await conn->established().wait();
    client->send(Message{1, 250, nullptr, 0.0});
    client->send(Message{2, 500'000, nullptr, 0.0});  // ~0.4s at 10 Mb/s
  }(conn, client));
  sim::spawn([](Harness& h, std::shared_ptr<MsgChannel>* server, sim::Time& s,
                sim::Time& b) -> sim::Task<void> {
    while (!*server) co_await sim::delay_for(h.engine, 1e-3);
    Message m1 = co_await (*server)->inbox().receive();
    s = h.engine.now();
    Message m2 = co_await (*server)->inbox().receive();
    b = h.engine.now();
    EXPECT_EQ(m1.type, 1u);
    EXPECT_EQ(m2.type, 2u);
  }(h, &server, small_at, big_at));
  h.engine.run();
  ASSERT_GT(small_at, 0.0);
  ASSERT_GT(big_at, 0.0);
  // The 500KB message needs >= 0.4s of wire time; the 250B one is immediate.
  EXPECT_GT(big_at - small_at, 0.35);
}

TEST(ChannelFraming, InterleavedSizesKeepBoundaries) {
  Harness h;
  auto& listener = h.b->listen(9101);
  std::vector<sim::Bytes> sizes_got;
  sim::spawn([](net::Listener& l, std::vector<sim::Bytes>& out) -> sim::Task<void> {
    auto conn = co_await l.accept();
    auto ch = std::make_shared<MsgChannel>(conn);
    for (int i = 0; i < 6; ++i) {
      Message m = co_await ch->inbox().receive();
      out.push_back(m.bytes);
    }
  }(listener, sizes_got));
  auto conn = h.a->connect(h.b->address(), 9101);
  auto client = std::make_shared<MsgChannel>(conn);
  const std::vector<sim::Bytes> sizes = {250, 8192, 64, 100'000, 1, 1460};
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    client->send(Message{static_cast<std::uint32_t>(i), sizes[i], nullptr, 0.0});
  }
  h.engine.run();
  EXPECT_EQ(sizes_got, sizes);
}

TEST(ChannelFraming, SendBeforeAcceptIsNotLost) {
  // The client fires immediately after its side of the handshake; the
  // server-side channel is constructed later by the accept handler.
  Harness h;
  auto& listener = h.b->listen(9102);
  std::uint32_t got = 0;
  sim::spawn([](sim::Engine& e, net::Listener& l, std::uint32_t& out) -> sim::Task<void> {
    auto conn = co_await l.accept();
    co_await sim::delay_for(e, 0.05);  // construct the channel even later
    auto ch = std::make_shared<MsgChannel>(conn);
    Message m = co_await ch->inbox().receive();
    out = m.type;
  }(h.engine, listener, got));
  auto conn = h.a->connect(h.b->address(), 9102);
  auto client = std::make_shared<MsgChannel>(conn);
  sim::spawn([](std::shared_ptr<net::Endpoint> conn,
                std::shared_ptr<MsgChannel> client) -> sim::Task<void> {
    co_await conn->established().wait();
    client->send(Message{77, 300, nullptr, 0.0});
  }(conn, client));
  h.engine.run();
  EXPECT_EQ(got, 77u);
}

TEST(ChannelFraming, MessageCountsTrackSendsAndReceives) {
  Harness h;
  auto& listener = h.b->listen(9103);
  std::shared_ptr<MsgChannel> server;
  sim::spawn([](net::Listener& l, std::shared_ptr<MsgChannel>& out) -> sim::Task<void> {
    auto conn = co_await l.accept();
    out = std::make_shared<MsgChannel>(conn);
  }(listener, server));
  auto conn = h.a->connect(h.b->address(), 9103);
  auto client = std::make_shared<MsgChannel>(conn);
  for (int i = 0; i < 5; ++i) client->send(Message{1, 100, nullptr, 0.0});
  h.engine.run();
  EXPECT_EQ(client->messages_sent(), 5u);
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(server->messages_received(), 5u);
}

}  // namespace
}  // namespace dclue::proto
