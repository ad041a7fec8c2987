#include "core/report.hpp"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "workload/ycsb.hpp"

namespace dclue::core {

namespace {

using MetricIndex =
    std::unordered_map<std::string_view, const obs::MetricValue*>;

const obs::MetricValue& at(const MetricIndex& ix, const std::string& name) {
  const auto it = ix.find(name);
  if (it == ix.end()) {
    throw std::logic_error("summarize: snapshot has no metric '" + name + "'");
  }
  return *it->second;
}

/// The entries `<prefix><i><suffix>` for i in [0, n), in index order; throws
/// unless each exists and `<prefix><n><suffix>` does not.
std::vector<const obs::MetricValue*> family(const MetricIndex& ix,
                                            const std::string& prefix,
                                            const std::string& suffix, int n) {
  std::vector<const obs::MetricValue*> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(&at(ix, prefix + std::to_string(i) + suffix));
  }
  if (ix.contains(prefix + std::to_string(n) + suffix)) {
    throw std::logic_error("summarize: more than " + std::to_string(n) +
                           " entries '" + prefix + "<i>" + suffix + "'");
  }
  return out;
}

/// A family's values summed in index order. Counts are integers, so their
/// sums are exact (below 2^53).
double sum(const MetricIndex& ix, const std::string& prefix,
           const std::string& suffix, int n) {
  double total = 0.0;
  for (const obs::MetricValue* m : family(ix, prefix, suffix, n)) {
    total += m->value;
  }
  return total;
}

void append_double(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

void append_kv(std::string& out, const char* indent, const char* key, double v,
               bool trailing_comma) {
  out += indent;
  out += "\"";
  out += key;
  out += "\": ";
  append_double(out, v);
  if (trailing_comma) out += ",";
  out += "\n";
}

void append_config(std::string& out, const ClusterConfig& c,
                   const char* indent) {
  // The knobs the benches actually sweep plus everything needed to re-run
  // the point; nested QoS/FTP sub-configs are flattened with dotted keys.
  struct KV {
    const char* key;
    double value;
  };
  const KV kvs[] = {
      {"nodes", static_cast<double>(c.nodes)},
      {"affinity", c.affinity},
      {"scale", c.scale},
      {"hw_tcp", c.hw_tcp ? 1.0 : 0.0},
      {"hw_iscsi", c.hw_iscsi ? 1.0 : 0.0},
      {"central_logging", c.central_logging ? 1.0 : 0.0},
      {"computation_factor", c.computation_factor},
      {"router_pps_at_scale100", c.router_pps_at_scale100},
      {"extra_inter_lata_latency", c.extra_inter_lata_latency},
      {"ftp.offered_load_mbps", c.ftp.offered_load_mbps},
      {"ftp.high_priority", c.ftp.high_priority ? 1.0 : 0.0},
      {"terminals_per_node", static_cast<double>(c.terminals_per_node)},
      {"think_time", c.think_time},
      {"open_loop_bt_rate_per_node", c.open_loop_bt_rate_per_node},
      {"max_servers_per_lata", static_cast<double>(c.max_servers_per_lata)},
      {"tpmc_per_node", c.tpmc_per_node},
      {"growth", static_cast<double>(c.growth)},
      {"warehouses_override", static_cast<double>(c.warehouses_override)},
      {"customers_per_district", static_cast<double>(c.customers_per_district)},
      {"items", static_cast<double>(c.items)},
      {"district_subpage_bytes", static_cast<double>(c.district_subpage_bytes)},
      {"ecn_marking", c.ecn_marking ? 1.0 : 0.0},
      {"qos.scheduler", static_cast<double>(c.qos.scheduler)},
      {"qos.wred", c.qos.wred ? 1.0 : 0.0},
      {"qos.af_police_mbps", c.qos.af_police_mbps},
      {"shards", static_cast<double>(c.shards)},
      {"shard_parallel", c.shard_parallel ? 1.0 : 0.0},
      {"ycsb_records", static_cast<double>(c.ycsb_records)},
      {"ycsb_theta", c.ycsb_theta},
      {"ycsb_shift", static_cast<double>(c.ycsb_shift)},
      {"warmup", c.warmup},
      {"measure", c.measure},
      {"seed", static_cast<double>(c.seed)},
  };
  out += "{\n";
  // The string-valued knobs are emitted first so the numeric block below
  // stays a uniform table.
  out += indent;
  out += "\"fault_spec\": \"";
  out += c.fault_spec;
  out += "\",\n";
  out += indent;
  out += "\"transport\": \"";
  out += c.transport_spec;
  out += "\",\n";
  out += indent;
  out += "\"workload\": \"";
  out += c.workload_spec;
  out += "\",\n";
  out += indent;
  out += "\"ycsb_dist\": \"";
  out += c.ycsb_dist;
  out += "\",\n";
  out += indent;
  out += "\"ycsb_arrival\": \"";
  out += c.ycsb_arrival;
  out += "\",\n";
  for (std::size_t i = 0; i < std::size(kvs); ++i) {
    append_kv(out, indent, kvs[i].key, kvs[i].value,
              i + 1 != std::size(kvs));
  }
  out += indent + 2;  // close brace two spaces shallower than the entries
  out += "}";
}

void append_report(std::string& out, const RunReport& r, const char* indent) {
  out += "{\n";
  std::vector<std::pair<const char*, double>> fields;
  for_each_field(
      r,
      [&fields](const char* key, double v) { fields.emplace_back(key, v); },
      [&fields](const char* key, std::uint64_t v) {
        fields.emplace_back(key, static_cast<double>(v));
      });
  for (std::size_t i = 0; i < fields.size(); ++i) {
    append_kv(out, indent, fields[i].first, fields[i].second,
              i + 1 != fields.size());
  }
  out += indent + 2;
  out += "}";
}

}  // namespace

RunReport summarize(const ClusterConfig& cfg, obs::Snapshot snapshot) {
  RunReport r;
  r.registry = std::move(snapshot);
  MetricIndex ix;
  for (const obs::MetricValue& m : r.registry.metrics) ix.emplace(m.name, &m);
  const auto node_sum = [&](const char* suffix) {
    return sum(ix, "node", std::string(".") + suffix, cfg.nodes);
  };
  const auto node_mean = [&](const char* suffix) {
    obs::Tally all;
    for (const obs::MetricValue* m :
         family(ix, "node", std::string(".") + suffix, cfg.nodes)) {
      if (m->kind != obs::MetricKind::kTally) {
        throw std::logic_error("summarize: '" + m->name + "' is not a tally");
      }
      all.merge(m->tally);
    }
    return all.mean();
  };

  const double measured = cfg.measure;
  const double n = static_cast<double>(cfg.nodes);
  r.nodes = cfg.nodes;
  r.affinity = cfg.affinity;
  r.measure_seconds = measured;

  const double committed = node_sum("txn.committed");
  const double aborted = node_sum("txn.aborted");
  const double hits = node_sum("cache.hits");
  const double misses = node_sum("cache.misses");
  const double txns = std::max(committed, 1.0);
  r.txns = committed;
  r.txn_rate = committed / measured;
  r.tpmc = node_sum("txn.new_orders_committed") / measured * 60.0 * cfg.scale;
  r.ipc_control_per_txn = node_sum("ipc.control_sent") / txns;
  r.ipc_data_per_txn = node_sum("ipc.data_sent") / txns;
  r.lock_waits_per_txn = node_sum("lock.waits") / txns;
  r.lock_failures_per_txn = node_sum("lock.failures") / txns;
  // Divide by the scale, then multiply: the fixtures pin this order, and the
  // txn_*_ms fields below multiply by 1e3 / scale instead.
  r.lock_wait_time_ms = node_mean("lock.wait_time_s") / cfg.scale * 1e3;
  r.control_msg_delay_ms =
      node_mean("ipc.control_msg_delay_s") / cfg.scale * 1e3;
  r.buffer_hit_ratio = (hits + misses) > 0 ? hits / (hits + misses) : 0.0;
  r.disk_reads_per_txn = node_sum("disk.reads") / txns;
  r.remote_fetch_per_txn = node_sum("cache.remote_fetches") / txns;
  r.avg_active_threads = node_sum("cpu.active_threads") / n;
  r.avg_context_switch_cycles = node_sum("cpu.context_switch_cycles") / n;
  const auto instr = family(ix, "node", ".cpu.instructions", cfg.nodes);
  const auto cycles = family(ix, "node", ".cpu.cycles", cfg.nodes);
  double cpi = 0.0;
  for (std::size_t i = 0; i < instr.size(); ++i) {
    if (instr[i]->value > 0) cpi += cycles[i]->value / instr[i]->value;
  }
  r.avg_cpi = cpi / n;
  r.cpu_utilization = node_sum("cpu.utilization") / n;
  r.abort_rate =
      (committed + aborted) > 0 ? aborted / (committed + aborted) : 0.0;
  const double ms = 1e3 / cfg.scale;  // scaled seconds -> unscaled ms
  r.txn_ms = node_mean("txn.t_total_s") * ms;
  r.txn_phase1_ms = node_mean("txn.t_phase1_s") * ms;
  r.txn_lock_ms = node_mean("txn.t_locks_s") * ms;
  r.txn_log_ms = node_mean("txn.t_log_s") * ms;
  r.txn_apply_ms = node_mean("txn.t_apply_s") * ms;

  const double inter_bytes =
      sum(ix, "fabric.link.lata", "-up.bytes_sent", cfg.latas()) +
      sum(ix, "fabric.link.lata", "-down.bytes_sent", cfg.latas());
  r.inter_lata_mbps = inter_bytes * 8.0 / measured / 1e6 * cfg.scale /
                      std::max(1, 2 * cfg.latas());
  r.fabric_drops =
      static_cast<std::uint64_t>(at(ix, "fabric.total_drops").value);

  // One fleet per client host: TPC-C terminals, or YCSB open-loop clients
  // whose ops_completed / sojourn hold only the measure window.
  const bool ycsb = workload::is_ycsb(cfg.workload_spec);
  const int hosts = cfg.client_hosts();
  const std::string fleet = ycsb ? ".ycsb." : ".";
  r.admission_drops = static_cast<std::uint64_t>(
      sum(ix, "client", fleet + "admission_drops", hosts));
  r.client_conn_failures = static_cast<std::uint64_t>(
      sum(ix, "client", fleet + "connection_failures", hosts));
  if (ycsb) {
    r.ycsb_ops = sum(ix, "client", ".ycsb.ops_completed", hosts);
    r.ycsb_op_rate = r.ycsb_ops / measured;
    // Merge the fleets' histograms before taking quantiles, so p50/p99
    // describe the whole cluster.
    const auto fleets = family(ix, "client", ".ycsb.sojourn", hosts);
    obs::Histogram sojourn = fleets.front()->histogram.value();
    for (std::size_t h = 1; h < fleets.size(); ++h) {
      sojourn.merge(fleets[h]->histogram.value());
    }
    r.sojourn_p50_ms = sojourn.quantile(0.50) / cfg.scale * 1e3;
    r.sojourn_p99_ms = sojourn.quantile(0.99) / cfg.scale * 1e3;
  } else {
    r.business_txns = sum(ix, "client", ".business_txns", hosts);
  }

  // FTP cross traffic runs from one extra client host (Fig 1).
  const int ftp_hosts = cfg.ftp.offered_load_mbps > 0.0 ? 1 : 0;
  r.ftp_carried_mbps = sum(ix, "ftp.client", ".bytes_carried", ftp_hosts) *
                       8.0 / measured / 1e6 * cfg.scale;
  r.transport = static_cast<int>(at(ix, "net.transport").value);
  return r;
}

std::string run_report_json(const std::string& bench, const std::string& title,
                            const std::string& sweep_axis,
                            const std::vector<ReportPoint>& points) {
  std::string out;
  out.reserve(4096 + 8192 * points.size());
  out += "{\n";
  out += "  \"schema\": \"dclue.run_report.v1\",\n";
  out += "  \"bench\": \"" + bench + "\",\n";
  out += "  \"title\": \"" + title + "\",\n";
  out += "  \"sweep_axis\": \"" + sweep_axis + "\",\n";
  out += "  \"points\": [";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ReportPoint& p = points[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\n";
    out += "      \"axis_value\": ";
    append_double(out, p.axis_value);
    out += ",\n";
    out += "      \"config\": ";
    append_config(out, p.config, "        ");
    out += ",\n";
    out += "      \"report\": ";
    append_report(out, p.report, "        ");
    out += ",\n";
    out += "      \"registry\": ";
    p.report.registry.append_json(out, 6);
    out += "\n    }";
  }
  out += points.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

bool write_run_report(const std::string& path, const std::string& bench,
                      const std::string& title, const std::string& sweep_axis,
                      const std::vector<ReportPoint>& points) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = run_report_json(bench, title, sweep_axis, points);
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const int rc = std::fclose(f);
  return written == json.size() && rc == 0;
}

}  // namespace dclue::core
