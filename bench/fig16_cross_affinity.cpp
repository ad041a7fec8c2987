/// Figure 16: cross-traffic sensitivity vs affinity (low computation). The
/// paper's counter-intuitive result: lower affinity is *less* sensitive to
/// interfering traffic, because low-affinity workloads already run many
/// threads (more communication to hide) and the cache is already near
/// thrashing — further delays cannot degrade it much more.
///
/// Same open-loop protocol as Figs 14-15, per affinity.

#include "bench/bench_util.hpp"

using namespace dclue;

namespace {
core::ClusterConfig base_for(double affinity) {
  core::ClusterConfig cfg = bench::base_config();
  cfg.nodes = 8;
  cfg.max_servers_per_lata = 4;
  cfg.affinity = affinity;
  cfg.computation_factor = 0.25;  // low computation
  return cfg;
}
}  // namespace

int main(int argc, char** argv) {
  bench::Scenario sweep("fig16_cross_affinity", "Fig 16",
                        "cross traffic impact vs affinity (low comp)",
                        "affinity", argc, argv);
  core::SeriesTable table("Fig 16: tpm-C(k) and drop% vs affinity, FTP@AF21 100Mb/s");
  table.add_column("affinity");
  table.add_column("no FTP");
  table.add_column("FTP 100");
  table.add_column("drop %");
  table.add_column("thr base");
  table.add_column("thr FTP");
  const std::vector<double> affinities =
      bench::fast_mode() ? std::vector<double>{0.8, 0.0}
                         : std::vector<double>{1.0, 0.8, 0.5, 0.0};

  std::vector<core::ClusterConfig> probes;
  for (double a : affinities) probes.push_back(base_for(a));
  const std::vector<double> rate = sweep.open_loop_rates(probes);

  for (std::size_t ai = 0; ai < affinities.size(); ++ai) {
    for (double mbps : {0.0, 100.0}) {
      core::ClusterConfig cfg = base_for(affinities[ai]);
      cfg.open_loop_bt_rate_per_node = rate[ai];
      cfg.ftp.offered_load_mbps = mbps;
      cfg.ftp.high_priority = true;
      sweep.add(affinities[ai], cfg);
    }
  }
  sweep.run();

  std::size_t k = 0;
  for (double a : affinities) {
    const core::RunReport& clean = sweep[k++];
    const core::RunReport& loaded = sweep[k++];
    std::vector<double> row{a};
    row.push_back(clean.tpmc / 1000.0);
    row.push_back(loaded.tpmc / 1000.0);
    row.push_back(clean.tpmc > 0 ? (1.0 - loaded.tpmc / clean.tpmc) * 100.0 : 0.0);
    row.push_back(clean.avg_active_threads);
    row.push_back(loaded.avg_active_threads);
    table.add_row(row);
  }
  table.print();
  return 0;
}
