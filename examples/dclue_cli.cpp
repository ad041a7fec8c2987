/// dclue_cli: run one cluster configuration from the command line and print
/// the full report (every RunReport field under its REPORT key) — the
/// general-purpose front end for ad-hoc sensitivity studies that do not
/// warrant a bench binary.
///
///   ./dclue_cli [--nodes N] [--affinity A] [--terminals T] [--sw-tcp]
///               [--sw-iscsi] [--central-log] [--low-comp] [--ftp MBPS]
///               [--ftp-priority] [--latency MS] [--router-pps P]
///               [--wfq] [--wred] [--police MBPS] [--seed S]
///               [--warmup S] [--measure S] [--open-loop RATE]
///               [--transport tcp|rdma]

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/experiment.hpp"
#include "net/transport.hpp"

namespace {

void usage() {
  std::puts(
      "dclue_cli — clustered DBMS / unified Ethernet fabric simulator\n"
      "  --nodes N        server nodes (default 4)\n"
      "  --affinity A     query affinity 0..1 (default 0.8)\n"
      "  --terminals T    closed-loop terminals per node (default 36)\n"
      "  --open-loop R    open-loop business txns/s per node (default off)\n"
      "  --sw-tcp         kernel TCP instead of offloaded\n"
      "  --sw-iscsi       software iSCSI (CRC in software)\n"
      "  --central-log    all logging on node 0 (Fig 9)\n"
      "  --low-comp       computational path lengths / 4 (Fig 13/15)\n"
      "  --ftp MBPS       FTP cross traffic offered load, unscaled Mb/s\n"
      "  --ftp-priority   promote FTP to AF21 strict priority\n"
      "  --latency MS     extra one-way inter-LATA latency, unscaled ms\n"
      "  --router-pps P   router forwarding rate at scale 100 (default 10000)\n"
      "  --wfq            weighted-fair queueing 4:1 instead of priority\n"
      "  --wred           WRED early dropping at all queues\n"
      "  --police MBPS    leaky-bucket police the AF class\n"
      "  --transport T    cluster fabric transport: tcp (default) or rdma\n"
      "  --metrics SUBSTR dump registry probes whose name contains SUBSTR\n"
      "  --seed S / --warmup S / --measure S (scaled seconds)\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dclue;
  core::ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.affinity = 0.8;
  const char* metrics_filter = nullptr;

  for (int i = 1; i < argc; ++i) {
    auto arg = [&](const char* name) { return std::strcmp(argv[i], name) == 0; };
    auto value = [&]() -> double {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return std::atof(argv[++i]);
    };
    if (arg("--nodes")) {
      cfg.nodes = static_cast<int>(value());
    } else if (arg("--affinity")) {
      cfg.affinity = value();
    } else if (arg("--terminals")) {
      cfg.terminals_per_node = static_cast<int>(value());
    } else if (arg("--open-loop")) {
      cfg.open_loop_bt_rate_per_node = value();
    } else if (arg("--sw-tcp")) {
      cfg.hw_tcp = false;
    } else if (arg("--sw-iscsi")) {
      cfg.hw_iscsi = false;
    } else if (arg("--central-log")) {
      cfg.central_logging = true;
    } else if (arg("--low-comp")) {
      cfg.computation_factor = 0.25;
    } else if (arg("--ftp")) {
      cfg.ftp.offered_load_mbps = value();
    } else if (arg("--ftp-priority")) {
      cfg.ftp.high_priority = true;
    } else if (arg("--latency")) {
      cfg.extra_inter_lata_latency = value() * 1e-3;
    } else if (arg("--router-pps")) {
      cfg.router_pps_at_scale100 = value();
    } else if (arg("--wfq")) {
      cfg.qos.scheduler = net::QueueScheduler::kWfq;
    } else if (arg("--wred")) {
      cfg.qos.wred = true;
      cfg.ecn_marking = true;
    } else if (arg("--police")) {
      cfg.qos.af_police_mbps = value();
    } else if (arg("--metrics")) {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      metrics_filter = argv[++i];
    } else if (arg("--transport")) {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      cfg.transport_spec = argv[++i];
      if (!net::try_parse_transport_spec(cfg.transport_spec)) {
        std::fprintf(stderr, "unknown transport '%s' (valid: tcp, rdma)\n",
                     cfg.transport_spec.c_str());
        return 2;
      }
    } else if (arg("--seed")) {
      cfg.seed = static_cast<std::uint64_t>(value());
    } else if (arg("--warmup")) {
      cfg.warmup = value();
    } else if (arg("--measure")) {
      cfg.measure = value();
    } else {
      usage();
      return arg("--help") || arg("-h") ? 0 : 2;
    }
  }

  std::fprintf(stderr,
               "running: %d nodes (%d LATA%s), affinity %.2f, %lld warehouses\n",
               cfg.nodes, cfg.latas(), cfg.latas() > 1 ? "s" : "", cfg.affinity,
               static_cast<long long>(cfg.warehouses()));
  core::RunReport r = core::run_experiment(cfg);

  core::for_each_field(
      r, [](const char* key, double v) { std::printf("%-26s %.10g\n", key, v); },
      [](const char* key, std::uint64_t v) {
        std::printf("%-26s %llu\n", key, static_cast<unsigned long long>(v));
      });
  if (metrics_filter) {
    // Raw registry dump for ad-hoc diagnosis: every probe whose name
    // contains the filter substring, scalar value only (counters print the
    // count, tallies the mean — the dominant use is comparing counters).
    for (const auto& m : r.registry.metrics) {
      if (m.name.find(metrics_filter) == std::string::npos) continue;
      std::printf("# %-48s %.6g", m.name.c_str(), m.value);
      if (m.count > 0) std::printf("  (n=%llu mean=%.6g max=%.6g)",
                                   static_cast<unsigned long long>(m.count),
                                   m.mean, m.max);
      std::printf("\n");
    }
  }
  return 0;
}
