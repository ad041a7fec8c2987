#include "core/report.hpp"

#include <cstdio>
#include <iterator>
#include <utility>

namespace dclue::core {

namespace {

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
