#include "sim/obs/registry.hpp"

#include <gtest/gtest.h>

namespace dclue::obs {
namespace {

TEST(MetricsRegistry, MetricsAppearInSnapshotInRegistrationOrder) {
  MetricsRegistry reg;
  Counter c;
  Gauge g;
  Tally t;
  reg.bind("a.count", &c);
  reg.bind("b.level", &g);
  reg.bind("c.latency", &t);
  c.record(3);
  g.record(7.0);
  t.record(2.0);
  t.record(4.0);

  const Snapshot snap = reg.snapshot(1.5);
  EXPECT_DOUBLE_EQ(snap.taken_at, 1.5);
  ASSERT_EQ(snap.metrics.size(), 3u);
  EXPECT_EQ(snap.metrics[0].name, "a.count");
  EXPECT_EQ(snap.metrics[1].name, "b.level");
  EXPECT_EQ(snap.metrics[2].name, "c.latency");
  EXPECT_EQ(snap.metrics[0].kind, MetricKind::kCounter);
  EXPECT_DOUBLE_EQ(snap.metrics[0].value, 3.0);
  EXPECT_DOUBLE_EQ(snap.metrics[1].value, 7.0);
  EXPECT_EQ(snap.metrics[2].count, 2u);
  EXPECT_DOUBLE_EQ(snap.metrics[2].mean, 3.0);
}

TEST(MetricsRegistry, SnapshotIsDetachedFromLiveCollectors) {
  MetricsRegistry reg;
  Counter c;
  reg.bind("x", &c);
  c.record(1);
  const Snapshot before = reg.snapshot(0.0);
  c.record(10);
  EXPECT_DOUBLE_EQ(before.find("x")->value, 1.0);
  EXPECT_DOUBLE_EQ(reg.snapshot(0.0).find("x")->value, 11.0);
}

TEST(MetricsRegistry, FindReturnsNullForUnknownName) {
  MetricsRegistry reg;
  Counter known;
  reg.bind("known", &known);
  const Snapshot snap = reg.snapshot(0.0);
  EXPECT_NE(snap.find("known"), nullptr);
  EXPECT_EQ(snap.find("unknown"), nullptr);
}

TEST(MetricsRegistry, BoundMetricsReadTheSubsystemCollector) {
  MetricsRegistry reg;
  Counter owned_by_subsystem;
  reg.bind("sub.counter", &owned_by_subsystem);
  owned_by_subsystem.record(5);
  EXPECT_DOUBLE_EQ(reg.snapshot(0.0).find("sub.counter")->value, 5.0);
}

TEST(MetricsRegistry, ResetWindowClearsResettableKinds) {
  MetricsRegistry reg;
  Counter c;
  Accum a;
  Tally t;
  Histogram h(0.0, 10.0, 10);
  reg.bind("c", &c);
  reg.bind("a", &a);
  reg.bind("t", &t);
  reg.bind("h", &h);
  c.record(4);
  a.record(2.5);
  t.record(1.0);
  h.record(5.0);

  reg.reset_window(10.0);

  const Snapshot snap = reg.snapshot(10.0);
  EXPECT_DOUBLE_EQ(snap.find("c")->value, 0.0);
  EXPECT_DOUBLE_EQ(snap.find("a")->value, 0.0);
  EXPECT_EQ(snap.find("t")->count, 0u);
  EXPECT_EQ(snap.find("h")->count, 0u);
}

TEST(MetricsRegistry, ResetWindowKeepsGaugeLevels) {
  MetricsRegistry reg;
  Gauge g;
  reg.bind("g", &g);
  double sampled = 42.0;
  reg.gauge_fn("g_fn", [&sampled] { return sampled; });
  g.record(9.0);

  reg.reset_window(10.0);

  const Snapshot snap = reg.snapshot(10.0);
  EXPECT_DOUBLE_EQ(snap.find("g")->value, 9.0);
  EXPECT_DOUBLE_EQ(snap.find("g_fn")->value, 42.0);
}

TEST(MetricsRegistry, ResetWindowRestartsTimeWeightedKeepingLevel) {
  MetricsRegistry reg;
  TimeWeightedAvg tw;
  reg.bind("tw", &tw);
  tw.record(0.0, 4.0);  // level 4 from t=0

  reg.reset_window(10.0);  // warmup ends; level stays 4

  // Over [10, 20] the level is constant 4, so the window average is 4 even
  // though the pre-reset history had the same level from t=0.
  EXPECT_DOUBLE_EQ(reg.snapshot(20.0).find("tw")->value, 4.0);
  tw.record(15.0, 0.0);
  EXPECT_DOUBLE_EQ(reg.snapshot(20.0).find("tw")->value, 2.0);
}

TEST(MetricsRegistry, GaugeFnSamplesAtSnapshotTime) {
  MetricsRegistry reg;
  double live = 1.0;
  reg.gauge_fn("live", [&live] { return live; });
  EXPECT_DOUBLE_EQ(reg.snapshot(0.0).find("live")->value, 1.0);
  live = 2.0;
  EXPECT_DOUBLE_EQ(reg.snapshot(0.0).find("live")->value, 2.0);
}

TEST(MetricsRegistry, OnResetHooksRunBeforeEntryResets) {
  MetricsRegistry reg;
  Counter internal;  // subsystem-internal collector, not registered
  reg.on_reset([&internal](sim::Time) { internal.reset(); });
  internal.record(3);
  reg.reset_window(0.0);
  EXPECT_EQ(internal.count(), 0u);
}

TEST(MetricsRegistry, HistogramSnapshotCarriesQuantiles) {
  MetricsRegistry reg;
  Histogram h(0.0, 100.0, 100);
  reg.bind("lat", &h);
  for (int i = 0; i < 100; ++i) h.record(i + 0.5);
  const Snapshot snap = reg.snapshot(0.0);
  const MetricValue* mv = snap.find("lat");
  ASSERT_NE(mv, nullptr);
  EXPECT_EQ(mv->kind, MetricKind::kHistogram);
  EXPECT_NEAR(mv->p50, 50.0, 1.5);
  EXPECT_NEAR(mv->p95, 95.0, 1.5);
  EXPECT_NEAR(mv->p99, 99.0, 1.5);
}

TEST(MetricsRegistry, SnapshotKeepsDistributionCopiesOutOfJson) {
  MetricsRegistry reg;
  Tally t;
  Histogram h(0.0, 10.0, 10);
  reg.bind("t", &t);
  reg.bind("h", &h);
  t.record(1.0);
  t.record(5.0);
  h.record(2.5);
  const Snapshot snap = reg.snapshot(0.0);
  t.record(100.0);
  h.record(9.5);
  // The copies are the collectors as they were at snapshot time.
  EXPECT_EQ(snap.find("t")->tally.count(), 2u);
  EXPECT_EQ(snap.find("t")->tally.max(), 5.0);
  ASSERT_TRUE(snap.find("h")->histogram.has_value());
  EXPECT_EQ(snap.find("h")->histogram->bins()[2], 1u);
  EXPECT_EQ(snap.find("h")->histogram->bins()[9], 0u);
  EXPECT_FALSE(snap.find("t")->histogram.has_value());
  // JSON prints the summary fields only, never the copies.
  Snapshot bare = snap;
  for (MetricValue& m : bare.metrics) {
    m.tally = Tally{};
    m.histogram.reset();
  }
  std::string with, without;
  snap.append_json(with, 0);
  bare.append_json(without, 0);
  EXPECT_EQ(with, without);
}

TEST(MetricsRegistry, SnapshotJsonIsWellFormedPerMetric) {
  MetricsRegistry reg;
  Counter c;
  reg.bind("json.count", &c);
  c.record(2);
  std::string out;
  reg.snapshot(0.0).append_json(out, 0);
  EXPECT_NE(out.find("\"json.count\""), std::string::npos);
  EXPECT_NE(out.find("\"counter\""), std::string::npos);
}

}  // namespace
}  // namespace dclue::obs
