/// Golden-output regression tests: two miniature points must reproduce their
/// committed fixtures byte for byte. A Fig-6-style TPC-C scaling point (2
/// nodes, affinity 0.8) pins the paper's report block; a YCSB-A point over
/// RDMA with FTP cross traffic and two LATAs pins the fields the TPC-C point
/// leaves at 0 (transport, YCSB ops and the sojourn quantiles merged over
/// two client fleets, FTP carried load). The datapath and engine refactors
/// promise "memory behavior only, event ordering untouched" — these tests
/// are what turn a silently shifted figure into a CI failure. Each fixture
/// also pins the number of events the engine executed, so a change in
/// events per run shows as a fixture diff.
///
/// To regenerate after an *intentional* model change, run with
/// GOLDEN_UPDATE=1 and paste each block it prints into the fixture it names
/// (keep the raw-string delimiters).

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

/// Run \p cfg and compare its report block plus the executed-event count
/// with \p fixture (the contents of \p fixture_file).
void expect_golden(const ClusterConfig& cfg, const char* fixture_file,
                   const char* fixture) {
  Cluster cluster(cfg);
  const RunReport r = cluster.run();
  const std::string got = format_report(r) + "events=" +
                          std::to_string(cluster.engine().events_executed()) +
                          "\n";
  if (std::getenv("GOLDEN_UPDATE") != nullptr) {
    std::printf("--- GOLDEN_UPDATE: paste into %s ---\n"
                "R\"golden(\n%s)golden\"\n"
                "--- end ---\n",
                fixture_file, got.c_str());
  }
  EXPECT_EQ(std::string(fixture), std::string("\n") + got)
      << "metrics block diverged from " << fixture_file
      << "; if the model change is intentional, regenerate with "
         "GOLDEN_UPDATE=1";
}

constexpr const char* kFig06Fixture =
#include "golden_fig06_fixture.inc"
    ;  // NOLINT

constexpr const char* kYcsbRdmaFixture =
#include "golden_ycsb_rdma_fixture.inc"
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
  expect_golden(cfg, "golden_fig06_fixture.inc", kFig06Fixture);
}

TEST(GoldenFig, EightNodeYcsbRdmaPointIsBitIdentical) {
  // 8 nodes in 2 LATAs give 2 client hosts, so the sojourn quantiles come
  // from two merged fleet histograms; FTP loads the inter-LATA trunks.
  ClusterConfig cfg;
  cfg.nodes = 8;
  cfg.max_servers_per_lata = 4;
  cfg.affinity = 0.8;
  cfg.workload_spec = "ycsb-a";
  cfg.transport_spec = "rdma";
  cfg.ftp.offered_load_mbps = 50.0;
  cfg.warehouses_override = 8;
  cfg.ycsb_records = 20'000;
  cfg.ycsb_arrival = "poisson:40";
  cfg.seed = 7;
  cfg.warmup = 1.0;
  cfg.measure = 2.0;
  expect_golden(cfg, "golden_ycsb_rdma_fixture.inc", kYcsbRdmaFixture);
}

}  // namespace
}  // namespace dclue::core
