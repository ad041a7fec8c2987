/// Extension (the paper's §4 future work): "it is important to examine QoS
/// schemes that can minimize inter-application interference and yet provide
/// a good performance for all." This bench evaluates the diff-serv
/// mechanisms the paper lists but does not study — weighted fair queueing,
/// WRED, and leaky-bucket policing of the aggressive class — against the two
/// arrangements it does study (all-best-effort, FTP at strict priority).
///
/// Scenario: 2 LATAs x 4 nodes, affinity 0.8, DBMS driven open-loop near
/// capacity, 400 Mb/s of FTP cross traffic.

#include "bench/bench_util.hpp"

using namespace dclue;

namespace {
core::ClusterConfig scenario() {
  core::ClusterConfig cfg = bench::base_config();
  cfg.nodes = 8;
  cfg.max_servers_per_lata = 4;
  cfg.affinity = 0.8;
  return cfg;
}
}  // namespace

int main(int argc, char** argv) {
  bench::Scenario sweep("ext_qos_future", "Extension",
                        "QoS schemes beyond the paper (its future work)",
                        "scheme_index", argc, argv);
  core::SeriesTable table(
      "QoS scheme vs DBMS throughput and FTP service (FTP 400 Mb/s offered)");
  table.add_column("scheme");
  table.add_column("tpmC_k");
  table.add_column("dbms_drop%");
  table.add_column("ftp_Mbps");
  table.add_column("ctl_dly_ms");

  const double rate = sweep.open_loop_rates({scenario()})[0];
  const double ftp_mbps = bench::fast_mode() ? 100.0 : 400.0;

  std::vector<const char*> names;
  auto add_scheme = [&](const char* name, auto configure) {
    core::ClusterConfig cfg = scenario();
    cfg.open_loop_bt_rate_per_node = rate;
    configure(cfg);
    sweep.add(static_cast<double>(names.size()), cfg);
    names.push_back(name);
  };

  add_scheme("no cross traffic (reference)", [&](core::ClusterConfig&) {});
  add_scheme("FTP best-effort (paper)", [&](core::ClusterConfig& cfg) {
    cfg.ftp.offered_load_mbps = ftp_mbps;
  });
  add_scheme("FTP @ AF21 strict priority (paper)", [&](core::ClusterConfig& cfg) {
    cfg.ftp.offered_load_mbps = ftp_mbps;
    cfg.ftp.high_priority = true;
  });
  add_scheme("WFQ 4:1 (DBMS:FTP)", [&](core::ClusterConfig& cfg) {
    cfg.ftp.offered_load_mbps = ftp_mbps;
    cfg.ftp.high_priority = true;
    cfg.qos.scheduler = net::QueueScheduler::kWfq;
  });
  add_scheme("priority + AF policed to 100 Mb/s", [&](core::ClusterConfig& cfg) {
    cfg.ftp.offered_load_mbps = ftp_mbps;
    cfg.ftp.high_priority = true;
    cfg.qos.af_police_mbps = 100.0;
  });
  add_scheme("priority + WRED/ECN", [&](core::ClusterConfig& cfg) {
    cfg.ftp.offered_load_mbps = ftp_mbps;
    cfg.ftp.high_priority = true;
    cfg.qos.wred = true;
    cfg.ecn_marking = true;
  });
  sweep.run();

  const double baseline = sweep[0].tpmc;
  for (std::size_t id = 0; id < sweep.size(); ++id) {
    const core::RunReport& r = sweep[id];
    std::printf("  [%zu] %s\n", id, names[id]);
    table.add_row({static_cast<double>(id), r.tpmc / 1000.0,
                   (1.0 - r.tpmc / baseline) * 100.0, r.ftp_carried_mbps,
                   r.control_msg_delay_ms});
  }
  table.print();
  std::printf(
      "\nReading: WFQ and policing bound the priority class's damage while\n"
      "still carrying FTP; strict priority alone lets the interfering class\n"
      "delay critical IPC control messages (the paper's finding), and\n"
      "all-best-effort splits the pain roughly evenly.\n");
  return 0;
}
