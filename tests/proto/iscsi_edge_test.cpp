/// iSCSI edge cases: multi-PDU write assembly, interleaved commands on one
/// session, and the software-mode CRC cost visible as simulated time.

#include <gtest/gtest.h>

#include "cpu/processor.hpp"
#include "net/tcp.hpp"
#include "net/topology.hpp"
#include "proto/iscsi.hpp"

namespace dclue::proto {
namespace {

/// Minimal initiator/target pair, optionally charging its iSCSI path lengths
/// to a simulated CPU.
struct Harness {
  sim::Engine engine;
  cpu::PlatformParams platform;
  cpu::MemorySystem mem{platform};
  cpu::Processor proc{engine, platform, mem};  ///< serves both ends
  std::unique_ptr<net::Topology> topo;
  std::unique_ptr<net::TcpStack> a;
  std::unique_ptr<net::TcpStack> b;
  storage::Disk disk;
  std::unique_ptr<IscsiTarget> target;
  std::unique_ptr<IscsiInitiator> initiator;

  explicit Harness(IscsiCostModel costs = IscsiCostModel::hardware(),
                   bool timed_cpu = false)
      : disk(engine, "remote", storage::DiskParams{}) {
    net::TopologyParams tp;
    tp.servers_per_lata = 2;
    topo = std::make_unique<net::Topology>(engine, tp);
    a = std::make_unique<net::TcpStack>(engine, topo->server_nic(0),
                                        net::TcpParams{}, net::TcpCostModel{},
                                        nullptr);
    b = std::make_unique<net::TcpStack>(engine, topo->server_nic(1),
                                        net::TcpParams{}, net::TcpCostModel{},
                                        nullptr);
    cpu::Processor* host_cpu = timed_cpu ? &proc : nullptr;
    target = std::make_unique<IscsiTarget>(engine, disk, host_cpu, costs);
    initiator = std::make_unique<IscsiInitiator>(engine, host_cpu, costs);
    auto& listener = b->listen(3260);
    sim::spawn([](Harness& h, net::Listener& l) -> sim::Task<void> {
      auto conn = co_await l.accept();
      h.target->serve(std::make_shared<MsgChannel>(conn));
    }(*this, listener));
    auto conn = a->connect(topo->server_nic(1).address(), 3260);
    initiator->attach(std::make_shared<MsgChannel>(conn));
  }
};

TEST(IscsiEdge, MultiPduWriteAssemblesBeforeDiskWrite) {
  Harness h;
  bool done = false;
  sim::spawn([](Harness& h, bool& ok) -> sim::Task<void> {
    co_await h.initiator->write(100, 200'000);  // 25 data-out PDUs
    ok = true;
  }(h, done));
  h.engine.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(h.disk.ops_completed(), 1u);  // one assembled write, not 25
  EXPECT_EQ(h.target->commands_served(), 1u);
}

TEST(IscsiEdge, InterleavedReadAndWriteCompleteIndependently) {
  Harness h;
  int done = 0;
  sim::spawn([](Harness& h, int& done) -> sim::Task<void> {
    co_await h.initiator->write(500, 65'536);
    ++done;
  }(h, done));
  sim::spawn([](Harness& h, int& done) -> sim::Task<void> {
    co_await h.initiator->read(900, 8'192);
    ++done;
  }(h, done));
  sim::spawn([](Harness& h, int& done) -> sim::Task<void> {
    co_await h.initiator->read(901, 16'384);
    ++done;
  }(h, done));
  h.engine.run();
  EXPECT_EQ(done, 3);
  EXPECT_EQ(h.initiator->ops_completed(), 3u);
  EXPECT_EQ(h.initiator->ops_pending(), 0u);
}

TEST(IscsiEdge, SoftwareCrcCostsSimulatedCpuTime) {
  // Against a CPU that takes real simulated time, software iSCSI's
  // per-byte digest must make the same read measurably slower ("the rather
  // large overhead of CRC calculations").
  auto run_mode = [](IscsiCostModel costs) {
    Harness h(costs, /*timed_cpu=*/true);
    double finish = 0.0;
    sim::spawn([](Harness& h, double& out) -> sim::Task<void> {
      co_await h.initiator->read(1000, 65'536);
      out = h.engine.now();
    }(h, finish));
    h.engine.run();
    return finish;
  };
  const double hw = run_mode(IscsiCostModel::hardware());
  const double sw = run_mode(IscsiCostModel::software());
  // The per-PDU digest cost pipelines with transmission, so only the
  // non-overlapped part is visible end to end — but it must be visible.
  EXPECT_GT(sw, hw + 2e-6);
}

TEST(IscsiEdge, UnknownTagsAreIgnored) {
  Harness h;
  // A stray data-out for a tag the target never saw must not crash or stall
  // subsequent commands.
  bool done = false;
  sim::spawn([](Harness& h, bool& ok) -> sim::Task<void> {
    co_await h.initiator->read(50, 8'192);
    ok = true;
  }(h, done));
  h.engine.run();
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace dclue::proto
