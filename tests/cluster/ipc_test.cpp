#include "net/tcp.hpp"
#include "cluster/ipc.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "net/topology.hpp"

namespace dclue::cluster {
namespace {

/// Two IPC services connected over a real fabric.
struct Harness {
  sim::Engine engine;
  std::unique_ptr<net::Topology> topo;
  std::unique_ptr<net::TcpStack> stack_a;
  std::unique_ptr<net::TcpStack> stack_b;
  core::NodeStats stats_a, stats_b;
  std::unique_ptr<IpcService> a;
  std::unique_ptr<IpcService> b;

  Harness() {
    net::TopologyParams tp;
    tp.servers_per_lata = 2;
    topo = std::make_unique<net::Topology>(engine, tp);
    stack_a = std::make_unique<net::TcpStack>(engine, topo->server_nic(0),
                                              net::TcpParams{}, net::TcpCostModel{},
                                              nullptr);
    stack_b = std::make_unique<net::TcpStack>(engine, topo->server_nic(1),
                                              net::TcpParams{}, net::TcpCostModel{},
                                              nullptr);
    a = std::make_unique<IpcService>(engine, 0, stats_a, 0.0, nullptr);
    b = std::make_unique<IpcService>(engine, 1, stats_b, 0.0, nullptr);
    auto& listener = stack_b->listen(7000);
    sim::spawn([](Harness& h, net::Listener& l) -> sim::Task<void> {
      auto conn = co_await l.accept();
      h.b->attach_peer(0, std::make_shared<proto::MsgChannel>(conn));
    }(*this, listener));
    auto conn = stack_a->connect(topo->server_nic(1).address(), 7000);
    a->attach_peer(1, std::make_shared<proto::MsgChannel>(conn));
  }
};

struct EchoBody {
  int value;
};

TEST(IpcService, ControlRpcRoundTrip) {
  Harness h;
  h.b->set_handler(kDirRequest, [&h](Envelope env) {
    auto body = std::static_pointer_cast<EchoBody>(env.body);
    auto reply = std::make_shared<EchoBody>(EchoBody{body->value * 2});
    h.b->send_control(env.src_node, kDirReply, reply, env.req_id);
  });
  int result = 0;
  sim::spawn([](Harness& h, int& out) -> sim::Task<void> {
    auto body = std::make_shared<EchoBody>(EchoBody{21});
    auto reply = co_await h.a->rpc(1, kDirRequest, body);
    out = std::static_pointer_cast<EchoBody>(reply)->value;
  }(h, result));
  h.engine.run();
  EXPECT_EQ(result, 42);
  EXPECT_EQ(h.stats_a.ipc_control_sent.count(), 1u);
  EXPECT_EQ(h.stats_b.ipc_control_sent.count(), 1u);
}

TEST(IpcService, OnewayControlDelivered) {
  Harness h;
  int got = 0;
  h.b->set_handler(kDirEvict, [&got](Envelope env) {
    got = std::static_pointer_cast<EchoBody>(env.body)->value;
  });
  auto body = std::make_shared<EchoBody>(EchoBody{7});
  h.a->send_control(1, kDirEvict, body);
  h.engine.run();
  EXPECT_EQ(got, 7);
}

TEST(IpcService, DataMessageCountsSeparately) {
  Harness h;
  h.b->set_handler(kDirEvict, [](Envelope) {});
  auto body = std::make_shared<EchoBody>(EchoBody{1});
  h.a->send(1, kBlockTransfer, kBlockBaseBytes + 1024, body, 99);
  h.engine.run();
  EXPECT_EQ(h.stats_a.ipc_data_sent.count(), 1u);
  EXPECT_EQ(h.stats_a.ipc_control_sent.count(), 0u);
  EXPECT_GE(h.stats_a.ipc_data_bytes.count(),
            static_cast<std::uint64_t>(kBlockBaseBytes));
}

/// The message type, not its size, picks the counter pair: recovery ships
/// its log in kBlockTransfer chunks, and the last one can be smaller than a
/// control message.
TEST(IpcService, ShortBlockTransferStillCountsAsData) {
  Harness h;
  auto body = std::make_shared<EchoBody>(EchoBody{1});
  h.a->send(1, kBlockTransfer, kControlMsgBytes - 50, body, 99);
  h.engine.run();
  EXPECT_EQ(h.stats_a.ipc_data_sent.count(), 1u);
  EXPECT_EQ(h.stats_a.ipc_data_bytes.count(),
            static_cast<std::uint64_t>(kControlMsgBytes - 50));
  EXPECT_EQ(h.stats_a.ipc_control_sent.count(), 0u);
  EXPECT_EQ(h.stats_a.ipc_control_bytes.count(), 0u);
}

/// The receive side, too: a block transfer shorter than a control message
/// is not a control-message delay.
TEST(IpcService, ShortBlockTransferIsNotAControlDelay) {
  Harness h;
  auto body = std::make_shared<EchoBody>(EchoBody{1});
  h.a->send(1, kBlockTransfer, kControlMsgBytes - 50, body, 99);
  h.engine.run();
  EXPECT_EQ(h.stats_b.control_msg_delay.count(), 0u);
}

TEST(IpcService, EarlyReplyBeforeAwaitIsNotLost) {
  // 3-way exchanges can deliver the correlated reply before the requester
  // starts waiting for it.
  Harness h;
  const std::uint64_t req = h.a->new_req_id();
  h.b->set_handler(kDirEvict, [&h, req](Envelope) {
    auto body = std::make_shared<EchoBody>(EchoBody{5});
    h.b->send(0, kBlockTransfer, kBlockBaseBytes, body, req);
  });
  int got = 0;
  sim::spawn([](Harness& h, std::uint64_t req, int& out) -> sim::Task<void> {
    auto trigger = std::make_shared<EchoBody>(EchoBody{0});
    h.a->send_control(1, kDirEvict, trigger);
    // Wait long enough that the reply has certainly arrived already.
    co_await sim::delay_for(h.engine, 1.0);
    auto reply = co_await h.a->await_reply(req);
    out = std::static_pointer_cast<EchoBody>(reply)->value;
  }(h, req, got));
  h.engine.run();
  EXPECT_EQ(got, 5);
}

TEST(IpcService, ControlDelayIsMeasuredAtReceiver) {
  Harness h;
  h.b->set_handler(kDirEvict, [](Envelope) {});
  auto body = std::make_shared<EchoBody>(EchoBody{1});
  h.a->send_control(1, kDirEvict, body);
  h.engine.run();
  EXPECT_EQ(h.stats_b.control_msg_delay.count(), 1u);
  EXPECT_GT(h.stats_b.control_msg_delay.mean(), 0.0);
}

TEST(IpcService, ConcurrentRpcsCorrelateIndependently) {
  Harness h;
  h.b->set_handler(kDirRequest, [&h](Envelope env) {
    auto body = std::static_pointer_cast<EchoBody>(env.body);
    auto reply = std::make_shared<EchoBody>(EchoBody{body->value + 100});
    h.b->send_control(env.src_node, kDirReply, reply, env.req_id);
  });
  std::vector<int> results(8, 0);
  for (int i = 0; i < 8; ++i) {
    sim::spawn([](Harness& h, std::vector<int>& out, int i) -> sim::Task<void> {
      auto body = std::make_shared<EchoBody>(EchoBody{i});
      auto reply = co_await h.a->rpc(1, kDirRequest, body);
      out[static_cast<std::size_t>(i)] =
          std::static_pointer_cast<EchoBody>(reply)->value;
    }(h, results, i));
  }
  h.engine.run();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(results[static_cast<std::size_t>(i)], 100 + i);
}

TEST(IpcTypeTable, NameTableCoversEveryType) {
  // kNumIpcTypes pins the counter/handler/name arrays to the enum (the
  // static_assert in ipc.hpp); this checks the name table itself kept up.
  std::set<std::string> names;
  for (std::uint32_t t = 1; t < kNumIpcTypes; ++t) {
    const std::string name = ipc_type_name(t);
    EXPECT_NE(name, "unknown") << "IpcType value " << t << " has no name";
    EXPECT_TRUE(names.insert(name).second)
        << "duplicate ipc_type_name for value " << t;
  }
  EXPECT_EQ(static_cast<std::size_t>(kLogFlushAck) + 1, kNumIpcTypes);
  EXPECT_STREQ(ipc_type_name(0), "unknown");
  EXPECT_STREQ(ipc_type_name(static_cast<std::uint32_t>(kNumIpcTypes)),
               "unknown");
}

TEST(IpcTypeTable, MetricsRegistryBindsOneCounterPerType) {
  sim::Engine engine;
  core::NodeStats stats;
  IpcService svc(engine, 0, stats, 0.0, nullptr);
  obs::MetricsRegistry reg;
  svc.register_metrics(reg, "ipc.sent.");
  const obs::Snapshot snap = reg.snapshot(engine.now());
  std::size_t bound = 0;
  for (const auto& m : snap.metrics) {
    if (m.name.rfind("ipc.sent.", 0) == 0) ++bound;
  }
  EXPECT_EQ(bound, kNumIpcTypes - 1);  // slot 0 is unused by construction
}

}  // namespace
}  // namespace dclue::cluster
