/// Open-loop client model unit battery: arrival-spec and YCSB-mix parsing,
/// the golden Poisson inter-arrival sequence the YcsbFleet draws (pins the
/// stream name/index contract), and hand-computed admission-queue cases — a
/// D/D/1 ramp whose admission order and depths are checked exactly, plus
/// bounded-queue drop accounting.

#include "workload/client.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "sim/rng.hpp"
#include "workload/admission.hpp"
#include "workload/ycsb.hpp"

namespace dclue::workload {
namespace {

// --- arrival-spec grammar ----------------------------------------------------

TEST(ArrivalSpec, ParsesPoissonAndFixed) {
  const ArrivalSpec p = parse_arrival_spec("poisson:400");
  EXPECT_EQ(p.kind, ArrivalSpec::Kind::kPoisson);
  EXPECT_DOUBLE_EQ(p.rate, 400.0);
  const ArrivalSpec f = parse_arrival_spec("fixed:2.5");
  EXPECT_EQ(f.kind, ArrivalSpec::Kind::kFixed);
  EXPECT_DOUBLE_EQ(f.rate, 2.5);
}

TEST(ArrivalSpec, RejectsMalformedSpecs) {
  EXPECT_THROW((void)parse_arrival_spec("poisson"), std::invalid_argument);
  EXPECT_THROW((void)parse_arrival_spec("uniform:10"), std::invalid_argument);
  EXPECT_THROW((void)parse_arrival_spec("poisson:fast"), std::invalid_argument);
  EXPECT_THROW((void)parse_arrival_spec("poisson:0"), std::invalid_argument);
  EXPECT_THROW((void)parse_arrival_spec("fixed:-3"), std::invalid_argument);
  EXPECT_THROW((void)parse_arrival_spec(""), std::invalid_argument);
}

// --- YCSB core-workload table ------------------------------------------------

TEST(YcsbMix, StandardTableAndRejections) {
  // Weights in YcsbOpType order {read, update, insert, scan, rmw} and the
  // default key distribution of each core workload (Cooper et al., SoCC '10).
  const struct {
    const char* spec;
    std::array<double, kNumYcsbOpTypes> weights;
    sim::KeyDist dist;
  } table[] = {
      {"ycsb-a", {0.50, 0.50, 0.00, 0.00, 0.00}, sim::KeyDist::kZipfian},
      {"ycsb-b", {0.95, 0.05, 0.00, 0.00, 0.00}, sim::KeyDist::kZipfian},
      {"ycsb-c", {1.00, 0.00, 0.00, 0.00, 0.00}, sim::KeyDist::kZipfian},
      {"ycsb-d", {0.95, 0.00, 0.05, 0.00, 0.00}, sim::KeyDist::kLatest},
      {"ycsb-e", {0.00, 0.00, 0.05, 0.95, 0.00}, sim::KeyDist::kZipfian},
      {"ycsb-f", {0.50, 0.00, 0.00, 0.00, 0.50}, sim::KeyDist::kZipfian},
  };
  for (const auto& row : table) {
    const YcsbMix mix = parse_ycsb_mix(row.spec);
    EXPECT_EQ(mix.letter, row.spec[5]);
    EXPECT_EQ(mix.weights, row.weights) << row.spec;
    EXPECT_DOUBLE_EQ(
        std::accumulate(mix.weights.begin(), mix.weights.end(), 0.0), 1.0)
        << row.spec;
    EXPECT_EQ(mix.default_dist, row.dist) << row.spec;
  }
  for (const char* spec : {"ycsb-g", "ycsb-", "ycsb-ab"}) {
    EXPECT_THROW((void)parse_ycsb_mix(spec), std::invalid_argument) << spec;
  }
}

// --- golden Poisson inter-arrivals ------------------------------------------

TEST(OpenLoopClient, GoldenPoissonInterArrivals) {
  // The fleet's arrival loop draws gaps as exponential(1/rate) from
  // stream("ycsb-arrival", host_index). The first six gaps at master seed
  // 12345, host 0, rate 10 ops/s are pinned bit-for-bit: a change to the
  // stream name, index convention, or exponential() implementation shows up
  // here before it silently re-randomizes every committed YCSB figure.
  sim::RngFactory f(12345);
  sim::Rng arrivals = f.stream("ycsb-arrival", 0);
  const double want[] = {
      0x1.8b3d71771254cp-11, 0x1.2d47f175dffd8p-5, 0x1.7a170fb65ef12p-5,
      0x1.a863cd85eaddap-6,  0x1.548d933febc89p-6, 0x1.e0fb63b21fc4fp-3,
  };
  for (double w : want) {
    EXPECT_EQ(arrivals.exponential(1.0 / 10.0), w);
  }
}

// --- exact D/D/1 admission case ---------------------------------------------

TEST(AdmissionQueue, DeterministicDD1RampMatchesHandComputation) {
  // One server slot (limit 1), arrivals every 1.0 s, service 1.5 s: the
  // classic D/D/1 overload ramp. Every depth and counter below is
  // hand-computed; the queue must reproduce them exactly.
  AdmissionQueue<int> q(/*limit=*/1);

  EXPECT_EQ(q.offer(1), Admit::kNow);  // op 1 enters service at 0.0
  EXPECT_EQ(q.inflight(), 1);
  EXPECT_EQ(q.offer(2), Admit::kQueued);  // at 1.0
  EXPECT_EQ(q.depth(), 1u);
  EXPECT_EQ(q.offer(3), Admit::kQueued);  // at 2.0
  EXPECT_EQ(q.depth(), 2u);
  EXPECT_EQ(q.max_depth(), 2u);

  // Op 1 completes at 1.5 (0.0 + 1.5 service): op 2 admitted.
  auto next = q.release();
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(*next, 2);
  EXPECT_EQ(q.depth(), 1u);
  EXPECT_EQ(q.inflight(), 1);  // the freed slot is immediately re-occupied

  EXPECT_EQ(q.offer(4), Admit::kQueued);  // at 3.0, just before op 2 ends
  EXPECT_EQ(q.depth(), 2u);

  // Op 2 completes at 3.0 (1.5 + 1.5): op 3 admitted.
  next = q.release();
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(*next, 3);

  // Op 3 completes at 4.5: op 4 admitted.
  next = q.release();
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(*next, 4);
  EXPECT_EQ(q.depth(), 0u);
  EXPECT_EQ(q.inflight(), 1);

  // Op 4 completes at 6.0: nothing queued, the slot frees.
  next = q.release();
  EXPECT_FALSE(next.has_value());
  EXPECT_EQ(q.inflight(), 0);

  EXPECT_EQ(q.arrivals(), 4u);
  EXPECT_EQ(q.drops(), 0u);
  EXPECT_EQ(q.max_depth(), 2u);
}

TEST(AdmissionQueue, FifoOrderAcrossSlots) {
  // Two service slots: queued items must come back in arrival order.
  AdmissionQueue<int> q(/*limit=*/2);
  EXPECT_EQ(q.offer(10), Admit::kNow);
  EXPECT_EQ(q.offer(11), Admit::kNow);
  EXPECT_EQ(q.offer(12), Admit::kQueued);
  EXPECT_EQ(q.offer(13), Admit::kQueued);
  EXPECT_EQ(*q.release(), 12);
  EXPECT_EQ(*q.release(), 13);
  EXPECT_FALSE(q.release().has_value());
  EXPECT_FALSE(q.release().has_value());
  EXPECT_EQ(q.inflight(), 0);
}

TEST(AdmissionQueue, BoundedQueueDropsAndCounts) {
  AdmissionQueue<int> q(/*limit=*/1, /*max_queue=*/2);
  EXPECT_EQ(q.offer(1), Admit::kNow);
  EXPECT_EQ(q.offer(2), Admit::kQueued);
  EXPECT_EQ(q.offer(3), Admit::kQueued);
  EXPECT_EQ(q.offer(4), Admit::kDropped);
  EXPECT_EQ(q.offer(5), Admit::kDropped);
  EXPECT_EQ(q.arrivals(), 5u);
  EXPECT_EQ(q.drops(), 2u);
  EXPECT_EQ(q.depth(), 2u);
  // A release drains the queue head, opening one slot for the next offer.
  EXPECT_EQ(*q.release(), 2);
  EXPECT_EQ(q.offer(6), Admit::kQueued);
  EXPECT_EQ(q.drops(), 2u);
}

}  // namespace
}  // namespace dclue::workload
