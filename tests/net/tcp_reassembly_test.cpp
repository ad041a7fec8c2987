/// Receiver-side reassembly tests: segments are injected straight into the
/// server NIC (zero protocol costs make rx processing fully synchronous), so
/// each test controls exact arrival order — holes, adjacent runs, overlapping
/// retransmissions and duplicates. The assertions pin the externally visible
/// contract of the out-of-order range vector: every byte is delivered to the
/// application exactly once, in order, as soon as it becomes contiguous.

#include <gtest/gtest.h>

#include <vector>

#include "net/tcp.hpp"
#include "net/topology.hpp"

namespace dclue::net {
namespace {

constexpr std::uint64_t kConnId = 4242;
constexpr std::uint16_t kPort = 7777;

struct Harness {
  sim::Engine engine;
  std::unique_ptr<Topology> topo;
  std::unique_ptr<TcpStack> a;
  std::unique_ptr<TcpStack> b;
  std::shared_ptr<TcpConnection> server;
  std::vector<sim::Bytes> deliveries;

  Harness() {
    TopologyParams tp;
    tp.servers_per_lata = 2;
    topo = std::make_unique<Topology>(engine, tp);
    a = std::make_unique<TcpStack>(engine, topo->server_nic(0), TcpParams{},
                                   TcpCostModel{}, nullptr);
    b = std::make_unique<TcpStack>(engine, topo->server_nic(1), TcpParams{},
                                   TcpCostModel{}, nullptr);
    auto& listener = b->listen(kPort);
    sim::spawn([](Listener& l,
                  std::shared_ptr<TcpConnection>& out) -> sim::Task<void> {
      out = std::static_pointer_cast<TcpConnection>(co_await l.accept());
    }(listener, server));
    // Handshake by injection: SYN creates the passive connection, the bare
    // ACK completes it (the server's SYN|ACK reaches stack `a`, which has no
    // matching connection and ignores it).
    inject(/*seq=*/0, /*len=*/0, /*is_ack=*/false, /*syn=*/true);
    inject(/*seq=*/0, /*len=*/0, /*is_ack=*/true);
    engine.run();
    EXPECT_NE(server, nullptr);
    server->set_rx_handler([this](sim::Bytes n) { deliveries.push_back(n); });
  }

  /// Hand a crafted segment to the server NIC as if it had arrived on the
  /// wire from host `a`.
  void inject(std::int64_t seq, sim::Bytes len, bool is_ack = false,
              bool syn = false) {
    Packet p;
    p.src = a->address();
    p.dst = b->address();
    p.bytes = len + kHeaderBytes;
    p.seg.conn_id = kConnId;
    p.seg.dst_port = kPort;
    p.seg.seq = seq;
    p.seg.len = len;
    p.seg.syn = syn;
    p.seg.is_ack = is_ack;
    topo->server_nic(1).deliver(std::move(p));
  }

  [[nodiscard]] sim::Bytes total_delivered() const {
    sim::Bytes n = 0;
    for (auto d : deliveries) n += d;
    return n;
  }
};

TEST(TcpReassembly, HoleCreatedThenFilledDeliversOnce) {
  Harness h;
  h.inject(1000, 500);  // beyond rcv_nxt: buffered, nothing delivered
  EXPECT_TRUE(h.deliveries.empty());
  EXPECT_EQ(h.server->bytes_received(), 0);
  h.inject(0, 1000);  // fills the hole: the whole prefix arrives at once
  ASSERT_EQ(h.deliveries.size(), 1u);
  EXPECT_EQ(h.deliveries[0], 1500);
  EXPECT_EQ(h.server->bytes_received(), 1500);
  h.engine.run();  // drain the acks this produced
}

TEST(TcpReassembly, AdjacentOutOfOrderRunsCoalesce) {
  Harness h;
  h.inject(2000, 500);
  h.inject(2500, 500);  // touches the previous run: one range [2000, 3000)
  EXPECT_TRUE(h.deliveries.empty());
  h.inject(0, 1460);  // in-order prefix, still short of the buffered run
  ASSERT_EQ(h.deliveries.size(), 1u);
  EXPECT_EQ(h.deliveries[0], 1460);
  h.inject(1460, 540);  // closes the gap: the coalesced run arrives whole
  ASSERT_EQ(h.deliveries.size(), 2u);
  EXPECT_EQ(h.deliveries[1], 540 + 1000);
  EXPECT_EQ(h.server->bytes_received(), 3000);
  h.engine.run();
}

TEST(TcpReassembly, RetransmitFillsMiddleHoleOfSeveral) {
  Harness h;
  h.inject(0, 1000);
  h.inject(2000, 1000);
  h.inject(4000, 1000);  // two separate holes: [1000,2000) and [3000,4000)
  EXPECT_EQ(h.total_delivered(), 1000);
  h.inject(1000, 1000);  // fill the first hole only
  EXPECT_EQ(h.total_delivered(), 3000);
  h.inject(3000, 1000);  // fill the second
  EXPECT_EQ(h.total_delivered(), 5000);
  EXPECT_EQ(h.server->bytes_received(), 5000);
  h.engine.run();
}

TEST(TcpReassembly, DuplicatesDeliverNothingTwice) {
  Harness h;
  h.inject(0, 1000);
  h.inject(0, 1000);  // duplicate of delivered data: no effect
  EXPECT_EQ(h.total_delivered(), 1000);
  h.inject(2000, 1000);
  h.inject(2000, 1000);  // duplicate of a buffered out-of-order run
  EXPECT_EQ(h.total_delivered(), 1000);
  h.inject(1000, 1000);  // close the hole
  EXPECT_EQ(h.total_delivered(), 3000);
  EXPECT_EQ(h.server->bytes_received(), 3000);
  h.engine.run();
}

TEST(TcpReassembly, OverlappingRetransmitDeliversEachByteOnce) {
  Harness h;
  h.inject(0, 1460);
  h.inject(2920, 1460);  // hole at [1460, 2920)
  EXPECT_EQ(h.total_delivered(), 1460);
  // An over-wide retransmission spanning the hole and part of the buffered
  // run (sender resent more than was lost).
  h.inject(1460, 2000);
  EXPECT_EQ(h.total_delivered(), 4380);
  EXPECT_EQ(h.server->bytes_received(), 4380);
  h.engine.run();
}

TEST(TcpReassembly, ManyInterleavedHolesResolveInAnyFillOrder) {
  Harness h;
  // Even-indexed segments first: ten disjoint runs, nothing deliverable.
  for (int i = 0; i < 10; ++i) h.inject(i * 2000 + 1000, 1000);
  EXPECT_EQ(h.total_delivered(), 0);
  // Fill the odd gaps back-to-front; only the final fill releases the prefix.
  for (int i = 9; i > 0; --i) h.inject(i * 2000, 1000);
  EXPECT_EQ(h.total_delivered(), 0);
  h.inject(0, 1000);
  EXPECT_EQ(h.total_delivered(), 20'000);
  EXPECT_EQ(h.server->bytes_received(), 20'000);
  h.engine.run();
}

}  // namespace
}  // namespace dclue::net
