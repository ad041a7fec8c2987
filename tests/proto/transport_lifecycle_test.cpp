/// Endpoint and channel lifecycle contract, exercised on BOTH transports.
/// The endpoint cases pin net::Endpoint's shared machine directly: bytes
/// buffered before a handler exists replay once, EOF fires once even when
/// its handler comes late, a reset runs every handler once and leaves the
/// endpoint closed with established() open, and a clean close empties both
/// stacks' tables. The channel cases check that the kChannelClosed /
/// kChannelReset sentinels reach a blocked inbox consumer, and that an IPC
/// channel reset fails every in-flight RPC (IpcService::fail_all_pending),
/// whichever fabric carries the bytes. A transport that delivers bytes but
/// botches teardown passes the byte-count tests and still deadlocks the
/// cluster.

#include <gtest/gtest.h>

#include "cluster/ipc.hpp"
#include "net/rdma.hpp"
#include "net/tcp.hpp"
#include "net/topology.hpp"
#include "proto/channel.hpp"
#include "sim/task.hpp"

namespace dclue::proto {
namespace {

/// Two servers in one LATA, each carrying both stacks behind the Transport
/// interface — the test body only ever sees net::Transport.
struct Harness {
  sim::Engine engine;
  net::TopologyParams tp;
  std::unique_ptr<net::Topology> topo;
  std::unique_ptr<net::TcpStack> tcp_a, tcp_b;
  std::unique_ptr<net::RdmaStack> rdma_a, rdma_b;
  net::Transport* a = nullptr;  ///< the selected stack on each host
  net::Transport* b = nullptr;

  explicit Harness(net::TransportKind kind) {
    tp.servers_per_lata = 2;
    topo = std::make_unique<net::Topology>(engine, tp);
    // Small retry budgets so a downed link exhausts the timer quickly.
    net::TcpParams tcp_params;
    tcp_params.max_retransmits = 3;
    net::RdmaParams rdma_params;
    rdma_params.max_retransmits = 3;
    tcp_a = std::make_unique<net::TcpStack>(engine, topo->server_nic(0),
                                            tcp_params, net::TcpCostModel{},
                                            nullptr);
    tcp_b = std::make_unique<net::TcpStack>(engine, topo->server_nic(1),
                                            tcp_params, net::TcpCostModel{},
                                            nullptr);
    rdma_a = std::make_unique<net::RdmaStack>(engine, topo->server_nic(0),
                                              rdma_params);
    rdma_b = std::make_unique<net::RdmaStack>(engine, topo->server_nic(1),
                                              rdma_params);
    if (kind == net::TransportKind::kTcp) {
      a = tcp_a.get();
      b = tcp_b.get();
    } else {
      a = rdma_a.get();
      b = rdma_b.get();
    }
  }
};

class TransportLifecycle
    : public ::testing::TestWithParam<net::TransportKind> {};

/// Accept one connection on \p port of host b into \p out.
void accept_into(Harness& h, std::uint16_t port,
                 std::shared_ptr<net::Endpoint>& out) {
  sim::spawn([](net::Listener& l,
                std::shared_ptr<net::Endpoint>& out) -> sim::Task<void> {
    out = co_await l.accept();
  }(h.b->listen(port), out));
}

TEST_P(TransportLifecycle, BytesBeforeRxHandlerReplayExactlyOnce) {
  Harness h(GetParam());
  std::shared_ptr<net::Endpoint> server;
  accept_into(h, 9210, server);
  auto conn = h.a->connect(h.topo->server_nic(1).address(), 9210);
  conn->send(10'000);
  h.engine.run();  // delivered and acknowledged, with no handler installed
  ASSERT_TRUE(server);
  EXPECT_EQ(server->bytes_received(), 10'000);

  int calls = 0;
  sim::Bytes replayed = 0;
  server->set_rx_handler([&](sim::Bytes n) {
    ++calls;
    replayed += n;
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(replayed, 10'000);

  // The buffer is spent: a replacement handler sees only new bytes.
  sim::Bytes later = 0;
  server->set_rx_handler([&](sim::Bytes n) { later += n; });
  EXPECT_EQ(later, 0);
  conn->send(3'000);
  h.engine.run();
  EXPECT_EQ(later, 3'000);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(replayed, 10'000);
}

TEST_P(TransportLifecycle, LateEofHandlerFiresImmediatelyAndOnce) {
  Harness h(GetParam());
  std::shared_ptr<net::Endpoint> server;
  accept_into(h, 9211, server);
  auto conn = h.a->connect(h.topo->server_nic(1).address(), 9211);
  conn->send(1'000);
  conn->close();
  h.engine.run();  // the close marker arrived before any EOF handler
  ASSERT_TRUE(server);
  EXPECT_EQ(server->bytes_received(), 1'000);

  int eofs = 0;
  server->set_eof_handler([&eofs] { ++eofs; });
  EXPECT_EQ(eofs, 1);
  server->close();  // finish the close; the marker must not re-fire EOF
  h.engine.run();
  EXPECT_EQ(eofs, 1);
  EXPECT_TRUE(server->closed());
  EXPECT_TRUE(conn->closed());
}

TEST_P(TransportLifecycle, ResetRunsEveryHandlerOnceAndCloses) {
  Harness h(GetParam());
  // Nobody listens on the port: the handshake retries until the budget is
  // spent and the endpoint resets.
  auto conn = h.a->connect(h.topo->server_nic(1).address(), 9212);
  int first = 0, second = 0;
  conn->add_reset_handler([&first] { ++first; });
  conn->add_reset_handler([&second] { ++second; });
  h.engine.run();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);
  EXPECT_TRUE(conn->established().is_open());
  EXPECT_TRUE(conn->closed());
  EXPECT_EQ(h.a->open_connections(), 0u);
}

TEST_P(TransportLifecycle, CleanCloseEmptiesBothTables) {
  Harness h(GetParam());
  std::shared_ptr<net::Endpoint> server;
  sim::spawn([](net::Listener& l,
                std::shared_ptr<net::Endpoint>& out) -> sim::Task<void> {
    out = co_await l.accept();
    out->set_rx_handler([](sim::Bytes) {});
    out->set_eof_handler([ep = out.get()] { ep->close(); });
  }(h.b->listen(9213), server));
  auto conn = h.a->connect(h.topo->server_nic(1).address(), 9213);
  conn->send(5'000);
  conn->close();
  h.engine.run();
  ASSERT_TRUE(server);
  EXPECT_TRUE(server->closed());
  EXPECT_TRUE(conn->closed());
  EXPECT_EQ(h.a->open_connections(), 0u);
  EXPECT_EQ(h.b->open_connections(), 0u);
}

TEST_P(TransportLifecycle, CleanCloseDeliversClosedSentinel) {
  Harness h(GetParam());
  auto& listener = h.b->listen(9200);
  std::uint32_t first = 0, second = 0;
  sim::spawn([](net::Listener& l, std::uint32_t& first,
                std::uint32_t& second) -> sim::Task<void> {
    auto conn = co_await l.accept();
    auto ch = std::make_shared<MsgChannel>(conn);
    first = (co_await ch->inbox().receive()).type;
    second = (co_await ch->inbox().receive()).type;
  }(listener, first, second));
  auto conn = h.a->connect(h.topo->server_nic(1).address(), 9200);
  auto client = std::make_shared<MsgChannel>(conn);
  Message m;
  m.type = 42;
  m.bytes = 600;
  client->send(std::move(m));
  sim::spawn([](std::shared_ptr<net::Endpoint> c) -> sim::Task<void> {
    co_await c->established().wait();
    c->close();
  }(conn));
  h.engine.run();
  EXPECT_EQ(first, 42u);
  EXPECT_EQ(second, kChannelClosed);
}

TEST_P(TransportLifecycle, ResetDeliversResetSentinel) {
  Harness h(GetParam());
  auto& listener = h.b->listen(9201);
  sim::spawn([](net::Listener& l) -> sim::Task<void> {
    auto conn = co_await l.accept();
    auto ch = std::make_shared<MsgChannel>(conn);
    (void)co_await ch->inbox().receive();
  }(listener));
  auto conn = h.a->connect(h.topo->server_nic(1).address(), 9201);
  auto client = std::make_shared<MsgChannel>(conn);
  std::uint32_t sentinel = 0;
  sim::spawn([](Harness& h, std::shared_ptr<net::Endpoint> c,
                std::shared_ptr<MsgChannel> ch,
                std::uint32_t& out) -> sim::Task<void> {
    co_await c->established().wait();
    // Cut the path, then send: the bytes die on the downed link until the
    // retry budget exhausts and the client's own endpoint resets, which the
    // channel must surface to its blocked consumer as kChannelReset.
    h.topo->server_uplink(0).set_link_down(true);
    Message m;
    m.type = 7;
    m.bytes = 600;
    ch->send(std::move(m));
    out = (co_await ch->inbox().receive()).type;
  }(h, conn, client, sentinel));
  h.engine.run();
  EXPECT_EQ(sentinel, kChannelReset);
}

TEST_P(TransportLifecycle, ChannelResetFailsAllPendingRpcs) {
  Harness h(GetParam());
  core::NodeStats stats_a, stats_b;
  cluster::IpcService ipc_a(h.engine, 0, stats_a, 0.0, nullptr);
  cluster::IpcService ipc_b(h.engine, 1, stats_b, 0.0, nullptr);
  auto& listener = h.b->listen(7000);
  sim::spawn([](net::Listener& l, cluster::IpcService& ipc) -> sim::Task<void> {
    auto conn = co_await l.accept();
    ipc.attach_peer(0, std::make_shared<MsgChannel>(conn));
  }(listener, ipc_b));
  auto conn = h.a->connect(h.topo->server_nic(1).address(), 7000);
  ipc_a.attach_peer(1, std::make_shared<MsgChannel>(conn));
  // ipc_b has no kDirRequest handler, so the RPC can only complete through
  // the failure path.
  bool resumed = false;
  bool body_null = false;
  sim::spawn([](Harness& h, std::shared_ptr<net::Endpoint> c,
                cluster::IpcService& ipc, bool& resumed,
                bool& body_null) -> sim::Task<void> {
    co_await c->established().wait();
    h.topo->server_downlink(0).set_link_down(true);  // no acks return to a
    auto body = co_await ipc.rpc(1, cluster::kDirRequest, nullptr);
    resumed = true;
    body_null = body == nullptr;
  }(h, conn, ipc_a, resumed, body_null));
  h.engine.run();
  EXPECT_TRUE(resumed);
  EXPECT_TRUE(body_null);
  EXPECT_EQ(ipc_a.failed_rpcs(), 1u);
  EXPECT_EQ(ipc_a.rpcs_pending(), 0u);
  EXPECT_FALSE(ipc_a.connected_to(1));
}

INSTANTIATE_TEST_SUITE_P(BothTransports, TransportLifecycle,
                         ::testing::Values(net::TransportKind::kTcp,
                                           net::TransportKind::kRdma),
                         [](const auto& info) {
                           return std::string(
                               net::transport_kind_name(info.param));
                         });

}  // namespace
}  // namespace dclue::proto
