/// Extension: the YCSB workload family on the clustered-DBMS model. The
/// paper's TPC-C results fix the access pattern; this bench asks how the
/// cluster behaves when the workload's *shape* is the variable — read-heavy
/// vs write-heavy mixes, uniform vs zipfian-skewed keys, short scans, and a
/// dynamically migrating hotspot — all served by open-loop keyed-op clients
/// with queued admission and sojourn-quantile reporting.
///
/// The sweep covers the workload family (A-F, plus a uniform twin of B and a
/// dynamic-shift twin of B) and emits the standard RunReport JSON for
/// scripts/check_report.py. The keyed hot path's zero-allocation contract is
/// checked by `ctest -R ZeroAlloc` (tests/alloc/zero_alloc_test.cpp).

#include <cstdio>
#include <vector>

#include "bench/bench_util.hpp"

namespace {

using namespace dclue;

core::ClusterConfig ycsb_base() {
  core::ClusterConfig cfg = bench::base_config();
  cfg.nodes = 3;
  // The TPC-C tables ride along only for database plumbing on ycsb runs;
  // keep them small so populate and cache warmup stay cheap.
  cfg.warehouses_override = 3;
  cfg.customers_per_district = 60;
  cfg.items = 200;
  cfg.ycsb_records = 60'000;
  // Below the ~17 keyed ops/s/node service capacity at these path lengths:
  // an open-loop bench must not saturate, or completions lag arrivals so far
  // that sojourns measure only queue growth (and late-run effects like the
  // dynamic hotspot shift never reach execution).
  cfg.ycsb_arrival = "poisson:10";
  cfg.warmup = bench::fast_mode() ? 2.0 : 6.0;
  cfg.measure = bench::fast_mode() ? 6.0 : 20.0;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  const bool fast = bench::fast_mode();
  bench::Scenario sc("ext_ycsb", "EXT YCSB",
                     "workload family: mixes, skew, scans, dynamic shift",
                     "mix", argc, argv);
  struct Point {
    const char* label;
    const char* workload;
    const char* dist;     ///< "" = mix default
    int shift;
    const char* arrival;  ///< nullptr = base rate; scans need a lower one
  };
  // E's scans average ~25 rows, so its per-op service demand is an order of
  // magnitude above the keyed mixes; it gets a matching lower offered rate.
  const std::vector<Point> points =
      fast ? std::vector<Point>{{"ycsb-a (50r/50u zipf)", "ycsb-a", "", 0, nullptr},
                                {"ycsb-b (95r/5u zipf)", "ycsb-b", "", 0, nullptr},
                                {"ycsb-e (95scan/5i)", "ycsb-e", "", 0, "poisson:1"},
                                {"ycsb-b shift=3", "ycsb-b", "", 3, nullptr}}
           : std::vector<Point>{{"ycsb-a (50r/50u zipf)", "ycsb-a", "", 0, nullptr},
                                {"ycsb-b (95r/5u zipf)", "ycsb-b", "", 0, nullptr},
                                {"ycsb-c (100r zipf)", "ycsb-c", "", 0, nullptr},
                                {"ycsb-d (95r/5i latest)", "ycsb-d", "", 0, nullptr},
                                {"ycsb-e (95scan/5i)", "ycsb-e", "", 0, "poisson:1"},
                                {"ycsb-f (50r/50rmw)", "ycsb-f", "", 0, nullptr},
                                {"ycsb-b uniform", "ycsb-b", "uniform", 0, nullptr},
                                {"ycsb-b shift=3", "ycsb-b", "", 3, nullptr}};
  for (std::size_t i = 0; i < points.size(); ++i) {
    core::ClusterConfig cfg = ycsb_base();
    cfg.workload_spec = points[i].workload;
    cfg.ycsb_dist = points[i].dist;
    cfg.ycsb_shift = points[i].shift;
    if (points[i].arrival != nullptr) cfg.ycsb_arrival = points[i].arrival;
    sc.add(static_cast<double>(i), cfg);
  }
  sc.run();

  std::printf("\n%-24s %10s %10s %12s %12s %10s\n", "mix", "ops/s", "ops",
              "p50 ms", "p99 ms", "abort%");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const core::RunReport& r = sc[i];
    std::printf("%-24s %10.1f %10.0f %12.3f %12.3f %9.2f%%\n", points[i].label,
                r.ycsb_op_rate, r.ycsb_ops, r.sojourn_p50_ms, r.sojourn_p99_ms,
                r.abort_rate * 100.0);
  }
  return 0;
}
