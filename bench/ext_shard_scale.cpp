/// Extension: one cluster far beyond the paper's 24 nodes — 100 nodes / 9
/// LATAs and 100,000 closed-loop terminals (1,000 per node) on the sharded
/// DES (8 shards, parallel windows). The size is fixed: REPRO_FAST does not
/// shrink it. The bench exits 1 when the run commits nothing, so
/// `--shards=0` (one legacy engine) reproduces that engine's silent stall at
/// this size as a failure.

#include <cstdio>

#include "bench/bench_util.hpp"

using namespace dclue;

int main(int argc, char** argv) {
  bench::Scenario sc("ext_shard_scale", "EXT shard scale",
                     "100 nodes x 1,000 terminals on 8 DES shards", "nodes",
                     argc, argv);
  core::ClusterConfig cfg = bench::base_config();
  cfg.nodes = 100;
  cfg.terminals_per_node = 1000;
  // 100k terminals must behave like TPC-C terminals (mostly thinking), not a
  // saturation generator: at the default 5 ms think the fleet collapses the
  // client access links (25 hosts x 4000 terminals) into a retransmit storm.
  cfg.think_time = sim::seconds(2);
  cfg.affinity = 1.0;  // shard mode requires full lock affinity
  cfg.warehouses_override = 200;
  cfg.customers_per_district = 60;
  cfg.items = 1000;
  cfg.warmup = 4.0;  // 100-node startup (connect + recovery) outlasts the default
  cfg.measure = 4.0;
  cfg.seed = 41;
  cfg.shards = 8;
  cfg.shard_parallel = true;
  sc.add(static_cast<double>(cfg.nodes), cfg);
  sc.run();

  const core::RunReport& r = sc[0];
  core::SeriesTable table("100-node cluster on the sharded DES");
  for (const char* col : {"nodes", "shards", "txns", "tpmC_k", "txn_ms",
                          "ctrl_msg/txn", "fabric_drops", "conn_fail"}) {
    table.add_column(col);
  }
  table.add_row({static_cast<double>(r.nodes),
                 static_cast<double>(r.shard_count), r.txns, r.tpmc / 1000.0,
                 r.txn_ms, r.ipc_control_per_txn,
                 static_cast<double>(r.fabric_drops),
                 static_cast<double>(r.client_conn_failures)});
  table.print();
  if (r.txns > 0.0) return 0;
  std::fprintf(stderr, "ext_shard_scale: no transaction committed\n");
  return 1;
}
