/// Seeded loss/reorder/duplication fuzz over a live TCP transfer. A mangler
/// PacketSink is spliced between the receiver's access link and its NIC
/// (Link::connect is the same hook the topology uses), so segments are
/// dropped, duplicated and delayed *on the wire* while the sender's full
/// congestion-control machinery — fast retransmit, RTO with backoff, SACK-ish
/// reassembly — fights back. Properties asserted per seed: the byte stream
/// arrives complete and exactly once, the out-of-order range vector drains
/// to empty (no leaked holes), both recovery mechanisms actually fired, and
/// the whole run reproduces bit-identically.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "net/tcp.hpp"
#include "net/topology.hpp"
#include "sim/rng.hpp"

namespace dclue::net {
namespace {

constexpr std::uint16_t kPort = 7777;
constexpr sim::Bytes kTotal = 400'000;

/// Interposed between the receiver's downlink and NIC.
struct Mangler : PacketSink {
  sim::Engine* engine = nullptr;
  PacketSink* next = nullptr;
  sim::Rng rng{0};
  bool active = false;
  double drop_p = 0.0;
  double dup_p = 0.0;
  double delay_p = 0.0;
  sim::Duration max_delay = 0.0;
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t delayed = 0;

  void deliver(Packet pkt) override {
    if (!active) {
      next->deliver(std::move(pkt));
      return;
    }
    if (drop_p > 0.0 && rng.chance(drop_p)) {
      ++dropped;
      return;
    }
    if (dup_p > 0.0 && rng.chance(dup_p)) {
      ++duplicated;
      next->deliver(pkt);
    }
    if (delay_p > 0.0 && rng.chance(delay_p)) {
      // Hold the segment briefly: later segments overtake it (reordering).
      ++delayed;
      engine->after(rng.uniform(0.0, max_delay),
                    [this, pkt] { next->deliver(pkt); });
      return;
    }
    next->deliver(std::move(pkt));
  }
};

struct FuzzResult {
  sim::Bytes received = 0;
  sim::Bytes delivered_via_handler = 0;
  std::size_t ooo_left = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t rto_fires = 0;
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t delayed = 0;

  bool operator==(const FuzzResult&) const = default;
};

FuzzResult run_fuzz(std::uint64_t seed) {
  sim::Engine engine;
  TopologyParams tp;
  tp.servers_per_lata = 2;
  Topology topo(engine, tp);
  TcpStack a(engine, topo.server_nic(0), TcpParams{}, TcpCostModel{},
             nullptr);
  TcpStack b(engine, topo.server_nic(1), TcpParams{}, TcpCostModel{},
             nullptr);

  Mangler mangler;
  mangler.engine = &engine;
  mangler.next = &topo.server_nic(1);
  mangler.rng = sim::RngFactory(seed).stream("fuzz.mangler");
  mangler.drop_p = 0.05;
  mangler.dup_p = 0.05;
  mangler.delay_p = 0.08;
  mangler.max_delay = 0.002;  // several segment times: real reordering
  topo.server_downlink(1).connect(&mangler);

  std::shared_ptr<TcpConnection> server;
  sim::Bytes handler_total = 0;
  auto& listener = b.listen(kPort);
  sim::spawn([](Listener& l, std::shared_ptr<TcpConnection>& out,
                sim::Bytes& handler_total) -> sim::Task<void> {
    out = std::static_pointer_cast<TcpConnection>(co_await l.accept());
    out->set_rx_handler([&handler_total](sim::Bytes n) { handler_total += n; });
  }(listener, server, handler_total));

  auto conn = a.connect(b.address(), kPort);
  sim::spawn([](sim::Engine& engine, std::shared_ptr<Endpoint> conn,
                Mangler& mangler) -> sim::Task<void> {
    co_await conn->established().wait();
    // Mangle only the data phase; the handshake went through clean.
    mangler.active = true;
    conn->send(kTotal);
    // Mid-transfer blackout longer than the (scaled) RTO floor: dup-ACK fast
    // retransmit cannot recover a fully dark link, so the RTO path must.
    co_await sim::delay_for(engine, 0.02);
    const double base_drop = mangler.drop_p;
    mangler.drop_p = 1.0;
    co_await sim::delay_for(engine, 0.2);
    mangler.drop_p = base_drop;
  }(engine, conn, mangler));

  engine.run();

  FuzzResult r;
  r.received = server ? server->bytes_received() : -1;
  r.delivered_via_handler = handler_total;
  r.ooo_left = server ? server->ooo_ranges() : 999;
  r.retransmits = a.total_retransmits();
  r.rto_fires = a.rto_fires();
  r.dropped = mangler.dropped;
  r.duplicated = mangler.duplicated;
  r.delayed = mangler.delayed;
  return r;
}

TEST(TcpLossFuzz, SeededStreamsSurviveDropDupReorder) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const FuzzResult r = run_fuzz(seed);
    // Exact reassembly: every byte delivered once, in order, none invented.
    EXPECT_EQ(r.received, kTotal);
    EXPECT_EQ(r.delivered_via_handler, kTotal);
    // The SmallVec hole tracker drained completely.
    EXPECT_EQ(r.ooo_left, 0u);
    // The mangler did real damage and both recovery paths fired: RTO during
    // the blackout, and more retransmits than RTO events means dup-ACK fast
    // retransmits happened too.
    EXPECT_GT(r.dropped, 0u);
    EXPECT_GT(r.duplicated, 0u);
    EXPECT_GT(r.delayed, 0u);
    EXPECT_GT(r.rto_fires, 0u);
    EXPECT_GT(r.retransmits, r.rto_fires);
  }
}

TEST(TcpLossFuzz, SameSeedReproducesExactly) {
  const FuzzResult first = run_fuzz(13);
  const FuzzResult second = run_fuzz(13);
  EXPECT_EQ(first, second);
  const FuzzResult other = run_fuzz(14);
  // Different seed, different damage pattern (sanity that the seed matters).
  EXPECT_FALSE(first.dropped == other.dropped &&
               first.delayed == other.delayed &&
               first.retransmits == other.retransmits);
}

}  // namespace
}  // namespace dclue::net
