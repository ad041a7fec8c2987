/// Figures 12 & 13: fabric latency impact. A 2-LATA system where each
/// inter-LATA link carries half of an added latency; the paper finds only a
/// few percent drop per millisecond for normal computation at both 0.8 and
/// 0.5 affinity — because "the true impact of latency is felt only when the
/// latency cannot be hidden by employing additional threads; therefore, we
/// do not place any bound on the number of threads used" — and a much
/// larger drop when computational path lengths are cut 4x (Fig 13).
///
/// Protocol: measure the closed-loop capacity at zero extra latency, then
/// drive the cluster OPEN-LOOP at ~92% of that capacity (unbounded threads)
/// while sweeping the added latency.

#include "bench/bench_util.hpp"

using namespace dclue;

namespace {

core::ClusterConfig scenario(double affinity, double comp) {
  core::ClusterConfig cfg = bench::base_config();
  cfg.nodes = 8;
  cfg.max_servers_per_lata = 4;  // force 2 LATAs of 4 nodes
  cfg.affinity = affinity;
  cfg.computation_factor = comp;
  return cfg;
}

constexpr double kComps[] = {1.0, 0.25};
constexpr double kAffinities[] = {0.8, 0.5};

}  // namespace

int main(int argc, char** argv) {
  bench::Scenario sweep("fig12_13_latency", "Fig 12 / Fig 13",
                        "inter-LATA latency impact, 2 LATAs x 4 nodes",
                        "extra_latency_ms", argc, argv);
  const std::vector<double> latencies =
      bench::fast_mode() ? std::vector<double>{0.0, 1.0}
                         : std::vector<double>{0.0, 0.5, 1.0, 2.0};

  // Pass 1: closed-loop capacity probe per (comp, affinity), all points at
  // once. Pass 2 depends on these rates, so it is a second sweep.
  std::vector<core::ClusterConfig> probes;
  for (double comp : kComps) {
    for (double a : kAffinities) probes.push_back(scenario(a, comp));
  }
  // [comp * 2 + affinity], bt/s per node
  const std::vector<double> open_rate = sweep.open_loop_rates(probes);

  // Pass 2: open-loop latency sweep for both figures.
  for (std::size_t ci = 0; ci < 2; ++ci) {
    for (double ms : latencies) {
      for (std::size_t ai = 0; ai < 2; ++ai) {
        core::ClusterConfig cfg = scenario(kAffinities[ai], kComps[ci]);
        cfg.open_loop_bt_rate_per_node = open_rate[ci * 2 + ai];
        cfg.extra_inter_lata_latency = ms * 1e-3;
        sweep.add(ms, cfg);
      }
    }
  }
  sweep.run();

  std::size_t k = 0;
  for (std::size_t ci = 0; ci < 2; ++ci) {
    const double comp = kComps[ci];
    core::SeriesTable table(comp == 1.0
                                ? "Fig 12: tpm-C(k) + drop% vs extra latency, normal comp"
                                : "Fig 13: tpm-C(k) + drop% vs extra latency, low comp");
    table.add_column("latency_ms");
    table.add_column("a=0.8 tpmC");
    table.add_column("a=0.8 drop%");
    table.add_column("a=0.8 thr");
    table.add_column("a=0.5 tpmC");
    table.add_column("a=0.5 drop%");

    std::array<double, 2> baseline{0.0, 0.0};
    for (double ms : latencies) {
      std::vector<double> row{ms};
      for (std::size_t ai = 0; ai < 2; ++ai) {
        const core::RunReport& r = sweep[k++];
        if (ms == 0.0) baseline[ai] = r.tpmc;
        const double drop =
            baseline[ai] > 0 ? (1.0 - r.tpmc / baseline[ai]) * 100.0 : 0.0;
        row.push_back(r.tpmc / 1000.0);
        row.push_back(drop);
        if (kAffinities[ai] == 0.8) row.push_back(r.avg_active_threads);
      }
      table.add_row(row);
    }
    table.print();
  }
  return 0;
}
