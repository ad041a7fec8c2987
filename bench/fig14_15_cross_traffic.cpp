/// Figures 14 & 15: FTP cross traffic vs DBMS throughput, 2 LATAs x 4 nodes,
/// affinity 0.8. Two QoS arrangements: everything best-effort (both traffics
/// back off together; modest impact) vs FTP promoted to AF21 strict priority
/// (critical IPC control messages are delayed; the paper sees a large drop
/// already at 100 Mb/s that then flattens as thread/cache thrash saturates).
///
/// Protocol: the DBMS is driven OPEN-LOOP near its clean capacity ("we do
/// not place any bound on the number of threads"), so interference shows up
/// as capacity loss through the delay -> threads -> cache-thrash -> CPI
/// chain rather than being masked by a fixed terminal population. Thread
/// count, context-switch cost, CPI and lock wait are printed to expose that
/// mechanism (the paper's 20->75 threads, 17.7K->69.7K cycles, CPI
/// 11.5->16.9, lock wait 2->10 ms narrative).

#include "bench/bench_util.hpp"

using namespace dclue;

namespace {
constexpr double kComps[] = {1.0, 0.25};

core::ClusterConfig scenario(double comp) {
  core::ClusterConfig cfg = bench::base_config();
  cfg.nodes = 8;
  cfg.max_servers_per_lata = 4;  // 2 LATAs x 4 nodes as in the paper
  cfg.affinity = 0.8;
  cfg.computation_factor = comp;
  return cfg;
}
}  // namespace

int main(int argc, char** argv) {
  bench::Scenario sweep("fig14_15_cross_traffic", "Fig 14 / Fig 15",
                        "FTP cross traffic impact, 2 LATAs x 4 nodes",
                        "ftp_offered_mbps", argc, argv);
  const std::vector<double> loads = bench::fast_mode()
                                        ? std::vector<double>{0, 100}
                                        : std::vector<double>{0, 100, 200, 400, 600};

  // Closed-loop capacity probes (both figures), then the open-loop grid.
  const std::vector<double> rate =
      sweep.open_loop_rates({scenario(kComps[0]), scenario(kComps[1])});

  for (std::size_t ci = 0; ci < 2; ++ci) {
    for (double mbps : loads) {
      for (bool priority : {false, true}) {
        core::ClusterConfig cfg = scenario(kComps[ci]);
        cfg.open_loop_bt_rate_per_node = rate[ci];
        cfg.ftp.offered_load_mbps = mbps;
        cfg.ftp.high_priority = priority;
        sweep.add(mbps, cfg);
      }
    }
  }
  sweep.run();

  std::size_t k = 0;
  for (std::size_t ci = 0; ci < 2; ++ci) {
    const double comp = kComps[ci];
    core::SeriesTable table(
        comp == 1.0 ? "Fig 14: tpm-C(k) vs offered FTP load, normal comp"
                    : "Fig 15: tpm-C(k) vs offered FTP load, low comp");
    table.add_column("ftp_mbps");
    table.add_column("best-effort");
    table.add_column("ftp@AF21");
    table.add_column("AF21 thr");
    table.add_column("AF21 csw_k");
    table.add_column("AF21 cpi");
    table.add_column("AF21 lw_ms");
    table.add_column("AF21 dly_ms");

    for (double mbps : loads) {
      std::vector<double> row{mbps};
      const core::RunReport& be = sweep[k++];
      const core::RunReport& pri = sweep[k++];
      row.push_back(be.tpmc / 1000.0);
      row.push_back(pri.tpmc / 1000.0);
      row.push_back(pri.avg_active_threads);
      row.push_back(pri.avg_context_switch_cycles / 1000.0);
      row.push_back(pri.avg_cpi);
      row.push_back(pri.lock_wait_time_ms);
      row.push_back(pri.control_msg_delay_ms);
      table.add_row(row);
    }
    table.print();
  }
  return 0;
}
