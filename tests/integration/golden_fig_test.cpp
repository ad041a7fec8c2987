/// Golden-output regression test: a miniature Fig-6-style scaling point (2
/// nodes, affinity 0.8) must reproduce the committed fixture byte for byte.
/// The datapath and engine refactors promise "memory behavior only, event
/// ordering untouched" — this test is what turns a silently shifted figure
/// into a CI failure. The fixture also pins the number of events the engine
/// executed, so a change in events per run shows as a fixture diff.
///
/// To regenerate after an *intentional* model change, run with
/// GOLDEN_UPDATE=1 and paste the block it prints into
/// golden_fig06_fixture.inc (keep the raw-string delimiters).

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/cluster.hpp"

namespace dclue::core {
namespace {

/// Every RunReport field in for_each_field order, formatted with round-trip
/// precision (%.17g): any double that differs in even the last bit changes
/// the text.
std::string format_report(const RunReport& r) {
  std::string out;
  char buf[128];
  for_each_field(
      r,
      [&](const char* key, double v) {
        std::snprintf(buf, sizeof buf, "%s=%.17g\n", key, v);
        out += buf;
      },
      [&](const char* key, std::uint64_t v) {
        std::snprintf(buf, sizeof buf, "%s=%llu\n", key,
                      static_cast<unsigned long long>(v));
        out += buf;
      });
  return out;
}

constexpr const char* kFixture =
#include "golden_fig06_fixture.inc"
    ;  // NOLINT

TEST(GoldenFig, TwoNodeScalingPointIsBitIdentical) {
  // A fixed mini fig06 point: every field is pinned explicitly so the run is
  // independent of REPRO_FAST and any default_config() evolution.
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.affinity = 0.8;
  cfg.seed = 7;
  cfg.warmup = 1.0;
  cfg.measure = 4.0;

  Cluster cluster(cfg);
  const RunReport r = cluster.run();
  const std::string got = format_report(r) + "events=" +
                          std::to_string(cluster.engine().events_executed()) +
                          "\n";
  if (std::getenv("GOLDEN_UPDATE") != nullptr) {
    std::printf("--- GOLDEN_UPDATE: paste into golden_fig06_fixture.inc ---\n"
                "R\"golden(\n%s)golden\"\n"
                "--- end ---\n",
                got.c_str());
  }
  EXPECT_EQ(std::string(kFixture), std::string("\n") + got)
      << "metrics block diverged from the committed fixture; if the model "
         "change is intentional, regenerate with GOLDEN_UPDATE=1";
}

}  // namespace
}  // namespace dclue::core
