#include <gtest/gtest.h>

#include "net/tcp.hpp"
#include "net/topology.hpp"
#include "proto/channel.hpp"
#include "proto/ftp.hpp"
#include "proto/iscsi.hpp"

namespace dclue::proto {
namespace {

struct Harness {
  sim::Engine engine;
  std::unique_ptr<net::Topology> topo;
  std::unique_ptr<net::TcpStack> a;
  std::unique_ptr<net::TcpStack> b;

  explicit Harness(net::TopologyParams tp = {}) {
    tp.servers_per_lata = std::max(tp.servers_per_lata, 2);
    topo = std::make_unique<net::Topology>(engine, tp);
    a = std::make_unique<net::TcpStack>(engine, topo->server_nic(0),
                                        net::TcpParams{}, net::TcpCostModel{},
                                        nullptr);
    b = std::make_unique<net::TcpStack>(engine, topo->server_nic(1),
                                        net::TcpParams{}, net::TcpCostModel{},
                                        nullptr);
  }

  /// Establish a connection pair and return both channels.
  std::pair<std::shared_ptr<MsgChannel>, std::shared_ptr<MsgChannel>>
  connect_channels(std::uint16_t port) {
    auto& listener = b->listen(port);
    std::shared_ptr<MsgChannel> server_ch;
    sim::spawn([](net::Listener& l,
                  std::shared_ptr<MsgChannel>& out) -> sim::Task<void> {
      auto conn = co_await l.accept();
      out = std::make_shared<MsgChannel>(conn);
    }(listener, server_ch));
    auto conn = a->connect(topo->server_nic(1).address(), port);
    auto client_ch = std::make_shared<MsgChannel>(conn);
    engine.run();
    return {client_ch, server_ch};
  }
};

TEST(MsgChannel, DeliversTypedMessagesInOrder) {
  Harness h;
  auto [client, server] = h.connect_channels(9000);
  ASSERT_NE(server, nullptr);
  std::vector<std::uint32_t> types;
  sim::spawn([](MsgChannel& ch, std::vector<std::uint32_t>& out) -> sim::Task<void> {
    for (int i = 0; i < 3; ++i) {
      Message m = co_await ch.inbox().receive();
      out.push_back(m.type);
    }
  }(*server, types));
  client->send(Message{1, 250, nullptr, 0.0});
  client->send(Message{2, 8192, nullptr, 0.0});
  client->send(Message{3, 250, nullptr, 0.0});
  h.engine.run();
  EXPECT_EQ(types, (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_EQ(server->messages_received(), 3u);
}

TEST(MsgChannel, PayloadSurvivesTransit) {
  Harness h;
  auto [client, server] = h.connect_channels(9001);
  int got = 0;
  sim::spawn([](MsgChannel& ch, int& out) -> sim::Task<void> {
    Message m = co_await ch.inbox().receive();
    out = *std::static_pointer_cast<int>(m.payload);
  }(*server, got));
  client->send(Message{1, 100, std::make_shared<int>(1234), 0.0});
  h.engine.run();
  EXPECT_EQ(got, 1234);
}

TEST(MsgChannel, LargeMessageIsSegmentedAndReassembled) {
  Harness h;
  auto [client, server] = h.connect_channels(9002);
  sim::Bytes got = 0;
  sim::Time sent_at = -1.0, recv_at = -1.0;
  sim::spawn([](sim::Engine& e, MsgChannel& ch, sim::Bytes& bytes, sim::Time& s,
                sim::Time& r) -> sim::Task<void> {
    Message m = co_await ch.inbox().receive();
    bytes = m.bytes;
    s = m.sent_at;
    r = e.now();
  }(h.engine, *server, got, sent_at, recv_at));
  client->send(Message{7, 65'536, nullptr, 0.0});
  h.engine.run();
  EXPECT_EQ(got, 65'536);
  EXPECT_GT(recv_at, sent_at);  // transit took simulated time
}

TEST(MsgChannel, BidirectionalTraffic) {
  Harness h;
  auto [client, server] = h.connect_channels(9003);
  bool round_trip = false;
  sim::spawn([](MsgChannel& ch) -> sim::Task<void> {
    Message m = co_await ch.inbox().receive();
    ch.send(Message{m.type + 1, 250, nullptr, 0.0});
  }(*server));
  sim::spawn([](MsgChannel& ch, bool& ok) -> sim::Task<void> {
    ch.send(Message{10, 250, nullptr, 0.0});
    Message reply = co_await ch.inbox().receive();
    ok = reply.type == 11;
  }(*client, round_trip));
  h.engine.run();
  EXPECT_TRUE(round_trip);
}

// ---------------------------------------------------------------------------

struct IscsiHarness : Harness {
  storage::Disk disk{engine, "remote-disk", storage::DiskParams{}};
  IscsiTarget target{engine, disk, nullptr, IscsiCostModel::hardware()};
  IscsiInitiator initiator{engine, nullptr, IscsiCostModel::hardware()};

  IscsiHarness() {
    auto [client_ch, server_ch] = connect_channels(3260);
    target.serve(server_ch);
    initiator.attach(client_ch);
  }
};

TEST(Iscsi, RemoteReadCompletes) {
  IscsiHarness h;
  bool done = false;
  sim::spawn([](IscsiInitiator& ini, bool& ok) -> sim::Task<void> {
    co_await ini.read(1000, 8192);
    ok = true;
  }(h.initiator, done));
  h.engine.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(h.disk.ops_completed(), 1u);
  EXPECT_EQ(h.target.commands_served(), 1u);
}

TEST(Iscsi, RemoteWriteShipsDataBeforeDiskWrite) {
  IscsiHarness h;
  bool done = false;
  sim::spawn([](IscsiInitiator& ini, bool& ok) -> sim::Task<void> {
    co_await ini.write(2000, 32'768);
    ok = true;
  }(h.initiator, done));
  h.engine.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(h.disk.ops_completed(), 1u);
}

TEST(Iscsi, ConcurrentCommandsAllComplete) {
  IscsiHarness h;
  int done = 0;
  for (int i = 0; i < 8; ++i) {
    sim::spawn([](IscsiInitiator& ini, int& done, int i) -> sim::Task<void> {
      co_await ini.read(i * 100'000, 8192);
      ++done;
    }(h.initiator, done, i));
  }
  h.engine.run();
  EXPECT_EQ(done, 8);
  EXPECT_EQ(h.initiator.ops_completed(), 8u);
}

TEST(Iscsi, RemoteReadSlowerThanLocalDisk) {
  IscsiHarness h;
  sim::Time remote_done = 0.0;
  sim::spawn([](sim::Engine& e, IscsiInitiator& ini, sim::Time& t) -> sim::Task<void> {
    co_await ini.read(1000, 8192);
    t = e.now();
  }(h.engine, h.initiator, remote_done));
  h.engine.run();

  sim::Engine e2;
  storage::Disk local(e2, "local", storage::DiskParams{});
  sim::Time local_done = 0.0;
  sim::spawn([](sim::Engine& e, storage::Disk& d, sim::Time& t) -> sim::Task<void> {
    co_await d.read(1000, 8192);
    t = e.now();
  }(e2, local, local_done));
  e2.run();
  EXPECT_GT(remote_done, local_done);
}

// ---------------------------------------------------------------------------

TEST(Ftp, TransfersCompleteAndCarryBytes) {
  net::TopologyParams tp;
  tp.servers_per_lata = 2;
  tp.extra_servers_per_lata = 1;
  tp.extra_client_hosts = 1;
  sim::Engine engine;
  net::Topology topo(engine, tp);
  net::TcpStack server_stack(engine, topo.extra_server_nic(0), net::TcpParams{},
                             net::TcpCostModel{}, nullptr);
  net::TcpStack client_stack(engine, topo.extra_client_nic(0), net::TcpParams{},
                             net::TcpCostModel{}, nullptr);
  FtpServer server(engine, server_stack, 21);
  FtpTrafficParams params;
  params.offered_load_bps = sim::mbps(50);
  FtpClient client(engine, client_stack,
                   {topo.extra_server_nic(0).address()}, params, sim::Rng(5));
  client.start();
  engine.run_until(1.0);
  EXPECT_GT(client.transfers_completed(), 20u);
  EXPECT_GT(client.bytes_carried(), 0);
  // Offered 50 Mb/s for 1s ~ 6.25 MB total; carried should be same order.
  EXPECT_GT(client.bytes_carried(), 2'000'000);
  EXPECT_GT(server.transfers_served(), 0u);
}

TEST(Ftp, ZeroLoadGeneratesNothing) {
  net::TopologyParams tp;
  tp.extra_servers_per_lata = 1;
  tp.extra_client_hosts = 1;
  sim::Engine engine;
  net::Topology topo(engine, tp);
  net::TcpStack client_stack(engine, topo.extra_client_nic(0), net::TcpParams{},
                             net::TcpCostModel{}, nullptr);
  FtpTrafficParams params;
  params.offered_load_bps = 0.0;
  FtpClient client(engine, client_stack,
                   {topo.extra_server_nic(0).address()}, params, sim::Rng(5));
  client.start();
  engine.run_until(1.0);
  EXPECT_EQ(client.transfers_completed(), 0u);
}

}  // namespace
}  // namespace dclue::proto
