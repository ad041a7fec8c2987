/// perfbench_point: run one DCLUE-R sweep point and print one JSON line.
///
///   perfbench_point --workload NAME --seed N [--warmup S --measure S]
///                   [--parallel] [--mode point|sampled|phases]
///
/// The process builds the workload's core::ClusterConfig from NAME and the
/// seed, and times the two public calls a user makes: the core::Cluster
/// constructor (setup_s) and Cluster::run() (run_s), with host CPU time over
/// the same span. The process runs exactly one point, so its peak RSS is the
/// point's.
///
/// Every simulated statistic is read from the single RunReport that run()
/// returns (never through run_experiment_avg, which zeroes fields it does
/// not blend) and folded into a fingerprint so repeated runs of one seed can
/// be compared exactly.
///
/// The traced pass uses the other two modes, each in a fresh process so its
/// allocator starts as cold as the untraced point's: `sampled` runs the point
/// with the SIGPROF sampler attributing run()'s host time to the dclue
/// modules (sampler.hpp); `phases` times the database calls the constructor
/// makes and a prewarm-only run.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/cluster.hpp"
#include "core/config.hpp"
#include "core/report.hpp"
#include "db/tpcc_schema.hpp"
#include "sampler.hpp"
#include "sim/rng.hpp"
#include "workload/ycsb.hpp"

namespace {

using dclue::core::Cluster;
using dclue::core::ClusterConfig;
using dclue::core::RunReport;
using dclue::obs::Snapshot;

constexpr int kSamplePeriodUs = 1000;

struct Options {
  std::string workload;
  std::uint64_t seed = 7;
  double warmup = -1.0;   ///< < 0 keeps the workload's window
  double measure = -1.0;
  bool parallel = false;  ///< step the shards on worker threads
  std::string mode = "point";  ///< point | sampled | phases
};

/// The benchmark's workloads. Why each exists is in README.md.
ClusterConfig workload_config(const Options& o) {
  ClusterConfig cfg;
  cfg.seed = o.seed;
  if (o.workload == "tpcc-scale24") {
    cfg.nodes = 24;  // 2 LATAs, 729 warehouses
    cfg.affinity = 1.0;
    cfg.terminals_per_node = 36;
    // Four shards stepped round-robin on one thread: the window protocol and
    // mailboxes run, with results bit-identical to parallel stepping. Parallel
    // stepping waits on a cross-thread wake-up at each of ~90 k windows, so
    // on a shared 4-vCPU host its run() time swings by 2x between runs; the
    // traced pass times it separately (--parallel).
    cfg.shards = 4;
    cfg.shard_parallel = o.parallel;
    cfg.warmup = 3.0;
    cfg.measure = 8.0;
  } else if (o.workload == "tpcc-fusion8") {
    cfg.nodes = 8;
    cfg.affinity = 0.5;
    cfg.terminals_per_node = 36;
    cfg.warmup = 3.0;
    cfg.measure = 90.0;
  } else if (o.workload == "ycsb-keyed16") {
    cfg.nodes = 16;
    cfg.affinity = 0.8;
    cfg.workload_spec = "ycsb-a";
    cfg.ycsb_records = 1'000'000;
    cfg.ycsb_dist = "uniform";
    cfg.ycsb_arrival = "poisson:40";
    cfg.transport_spec = "rdma";
    cfg.warmup = 3.0;
    cfg.measure = 60.0;
  } else {
    throw std::invalid_argument("unknown workload '" + o.workload + "'");
  }
  if (o.warmup >= 0.0) cfg.warmup = o.warmup;
  if (o.measure >= 0.0) cfg.measure = o.measure;
  return cfg;
}

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

rusage usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru;
}

double cpu_seconds(const rusage& ru) {
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/// Minimal one-line JSON object writer (all numbers with %.17g).
class Json {
 public:
  Json& num(std::string_view key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  Json& str(std::string_view key, std::string_view v) {
    std::string quoted = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    return raw(key, quoted + "\"");
  }
  Json& raw(std::string_view key, std::string_view v) {
    out_ += out_.empty() ? "{" : ",";
    out_ += "\"";
    out_ += key;
    out_ += "\":";
    out_ += v;
    return *this;
  }
  [[nodiscard]] std::string done() const { return out_.empty() ? "{}" : out_ + "}"; }

 private:
  std::string out_;
};

/// True when \p name is "node<digits>.<suffix>".
bool is_node_metric(std::string_view name, std::string_view suffix) {
  if (name.substr(0, 4) != "node") return false;
  std::size_t i = 4;
  while (i < name.size() && name[i] >= '0' && name[i] <= '9') ++i;
  return i > 4 && i < name.size() && name[i] == '.' && name.substr(i + 1) == suffix;
}

double sum_nodes(const Snapshot& s, std::string_view suffix) {
  double total = 0.0;
  for (const auto& m : s.metrics) {
    if (is_node_metric(m.name, suffix)) total += m.value;
  }
  return total;
}

double mean_nodes(const Snapshot& s, std::string_view suffix) {
  double total = 0.0;
  int n = 0;
  for (const auto& m : s.metrics) {
    if (is_node_metric(m.name, suffix)) {
      total += m.value;
      ++n;
    }
  }
  return n > 0 ? total / n : 0.0;
}

double sum_wrapped(const Snapshot& s, std::string_view prefix,
                   std::string_view suffix) {
  double total = 0.0;
  for (const auto& m : s.metrics) {
    const std::string_view name = m.name;
    if (name.size() > prefix.size() + suffix.size() &&
        name.substr(0, prefix.size()) == prefix &&
        name.substr(name.size() - suffix.size()) == suffix) {
      total += m.value;
    }
  }
  return total;
}

/// FNV-1a over the exact text of every deterministic result: the RunReport
/// scalars, the event count, and the registry minus the "shard." gauges
/// (wall-clock window-protocol diagnostics that differ between schedules).
std::string fingerprint(const RunReport& r, std::uint64_t events) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::string_view text) {
    for (char c : text) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
  };
  char buf[96];
  auto mix_num = [&](std::string_view name, double v) {
    mix(name);
    std::snprintf(buf, sizeof buf, "=%.17g;", v);
    mix(buf);
  };
  dclue::core::for_each_field(
      r, mix_num,
      [&](std::string_view name, std::uint64_t v) {
        mix_num(name, static_cast<double>(v));
      });
  mix_num("events", static_cast<double>(events));
  for (const auto& m : r.registry.metrics) {
    if (m.name.rfind("shard.", 0) == 0) continue;
    mix_num(m.name, m.value);
    mix_num(m.name, static_cast<double>(m.count));
  }
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
  return buf;
}

struct ShardTotals {
  double windows = 0.0;
  double blocked_s = 0.0;
  double envelopes = 0.0;
};

struct PointResult {
  RunReport report;
  double setup_s = 0.0;
  double run_s = 0.0;
  double cpu_s = 0.0;
  double run_cpu_s = 0.0;
  std::uint64_t events = 0;
  ShardTotals shard;
};

/// Time one point: constructor, then run(). With \p sampled the SIGPROF
/// sampler covers run() only.
PointResult run_point(const ClusterConfig& cfg, bool sampled) {
  PointResult p;
  const rusage u0 = usage();
  const double t0 = wall_now();
  Cluster cluster(cfg);
  const double t1 = wall_now();
  const double c1 = cpu_seconds(usage());
  if (sampled) perfbench::start_sampling(kSamplePeriodUs);
  p.report = cluster.run();
  if (sampled) perfbench::stop_sampling();
  const double t2 = wall_now();
  const double c2 = cpu_seconds(usage());
  p.cpu_s = c2 - cpu_seconds(u0);
  p.run_cpu_s = c2 - c1;
  p.setup_s = t1 - t0;
  p.run_s = t2 - t1;
  if (cluster.sharded()) {
    const dclue::sim::ShardSet& ss = *cluster.shard_set();
    p.events = ss.events_executed();
    for (int s = 0; s < ss.shards(); ++s) {
      p.shard.windows += static_cast<double>(ss.stats(s).windows);
      p.shard.blocked_s += ss.stats(s).blocked_seconds;
      p.shard.envelopes += static_cast<double>(ss.stats(s).envelopes_out);
    }
  } else {
    p.events = cluster.engine().events_executed();
  }
  return p;
}

/// The simulated per-layer counts: measure-window values from the report's
/// registry snapshot, summed over node prefixes.
void add_simulated_layers(Json& j, const PointResult& p) {
  const RunReport& r = p.report;
  const Snapshot& s = r.registry;
  j.num("sim.events", static_cast<double>(p.events));
  j.num("cpu.instructions", sum_nodes(s, "cpu.instructions"));
  j.num("cpu.stall_cycles", sum_nodes(s, "cpu.stall_cycles"));
  j.num("cpu.context_switches", sum_nodes(s, "cpu.context_switches"));
  j.num("net.tcp_segments", sum_nodes(s, "tcp.segments_sent"));
  j.num("net.tcp_retransmits", sum_nodes(s, "tcp.retransmits"));
  j.num("net.router_forwarded", sum_wrapped(s, "fabric.router.", ".forwarded"));
  j.num("net.fabric_drops", static_cast<double>(r.fabric_drops));
  j.num("cluster.ipc_control", sum_nodes(s, "ipc.control_sent"));
  j.num("cluster.ipc_data", sum_nodes(s, "ipc.data_sent"));
  j.num("cluster.remote_fetches", sum_nodes(s, "cache.remote_fetches"));
  j.num("cluster.ipc_ctrl_delay_ms", r.control_msg_delay_ms);
  j.num("db.cache_hit_ratio", r.buffer_hit_ratio);
  j.num("db.lock_acquisitions", sum_nodes(s, "lock.acquisitions"));
  j.num("db.lock_waits", sum_nodes(s, "lock.waits"));
  j.num("db.probe_len", mean_nodes(s, "db.probe_len"));
  j.num("storage.disk_reads", sum_nodes(s, "disk.reads"));
  j.num("storage.log_ops", sum_nodes(s, "disk.log.ops"));
  j.num("proto.iscsi_reads", sum_nodes(s, "disk.iscsi_reads"));
  j.num("workload.committed", sum_nodes(s, "txn.committed"));
  j.num("workload.aborted", sum_nodes(s, "txn.aborted"));
  j.num("workload.sojourn_p50_ms", r.sojourn_p50_ms);
  j.num("workload.sojourn_p99_ms", r.sojourn_p99_ms);
}

void add_point(Json& j, const PointResult& p) {
  const RunReport& r = p.report;
  j.num("setup_s", p.setup_s);
  j.num("run_s", p.run_s);
  j.num("wall_s", p.setup_s + p.run_s);
  j.num("cpu_s", p.cpu_s);
  j.num("run_cpu_s", p.run_cpu_s);
  j.num("sim_commits_per_s", r.txn_rate);
  j.num("sim_txn_ms", r.txn_ms);
  j.num("txns", r.txns);
  j.num("client_conn_failures", static_cast<double>(r.client_conn_failures));
  j.num("admission_drops", static_cast<double>(r.admission_drops));
  j.num("shard_count", r.shard_count);
  j.num("shard.windows", p.shard.windows);
  j.num("shard.blocked_s", p.shard.blocked_s);
  j.num("shard.envelopes", p.shard.envelopes);
  j.str("fingerprint", fingerprint(r, p.events));
  add_simulated_layers(j, p);
}

/// --mode sampled: the point with the SIGPROF sampler over run(), and the
/// sample count per module. The effective sample period is run()'s CPU time
/// over the sample count (the kernel delivers ITIMER_PROF at its tick).
void add_sampled(Json& j, const ClusterConfig& cfg) {
  const PointResult p = run_point(cfg, /*sampled=*/true);
  const perfbench::SampleProfile prof = perfbench::attribute_samples();
  for (const auto& [module, count] : prof.by_module) {
    j.num("samples." + module, static_cast<double>(count));
  }
  j.num("trace.samples", static_cast<double>(prof.samples));
  j.num("trace.sample_period_ms",
        p.run_cpu_s / static_cast<double>(std::max<std::uint64_t>(prof.samples, 1)) * 1e3);
  add_point(j, p);
}

/// --mode phases: spans around the calls the constructor makes into db
/// (on the driver's own instance: same scale, same "populate" RNG stream,
/// total_data_pages once per node), then run() with near-zero windows,
/// which leaves prewarm plus connection start-up.
void add_phases(Json& j, const ClusterConfig& cfg) {
  struct Span {
    const char* name;
    double start, end;
  };
  std::vector<Span> spans;
  const double origin = wall_now();
  auto span = [&](const char* name, auto&& fn) {
    const double t0 = wall_now() - origin;
    fn();
    spans.push_back({name, t0, wall_now() - origin});
    return spans.back().end - spans.back().start;
  };

  double populate_s = 0.0, ycsb_s = 0.0, pages_s = 0.0;
  {
    dclue::db::TpccScale scale;
    scale.warehouses = cfg.warehouses();
    scale.customers_per_district = cfg.customers_per_district;
    scale.items = cfg.items;
    scale.district_subpage_override = cfg.district_subpage_bytes;
    dclue::db::TpccDatabase db(scale);
    populate_s = span("db.populate", [&] {
      dclue::sim::Rng rng = dclue::sim::RngFactory(cfg.seed).stream("populate");
      db.populate(rng);
    });
    if (dclue::workload::is_ycsb(cfg.workload_spec)) {
      ycsb_s = span("db.build_ycsb", [&] { db.build_ycsb(cfg.ycsb_records); });
    }
    std::uint64_t pages = 0;
    pages_s = span("db.total_data_pages", [&] {
      for (int i = 0; i < cfg.nodes; ++i) pages += db.total_data_pages();
    });
    if (pages == 0) throw std::logic_error("database has no data pages");
  }

  ClusterConfig quick = cfg;
  quick.warmup = 0.01;
  quick.measure = 0.01;
  std::unique_ptr<Cluster> cluster;
  span("prewarm.setup", [&] { cluster = std::make_unique<Cluster>(quick); });
  const double prewarm_s = span("prewarm.run", [&] { (void)cluster->run(); });

  j.num("db.populate_s", populate_s);
  j.num("db.build_ycsb_s", ycsb_s);
  j.num("db.total_data_pages_ms", pages_s * 1e3);
  j.num("core.prewarm_s", prewarm_s);
  std::string list = "[";
  for (const Span& s : spans) {
    if (list.size() > 1) list += ",";
    list += Json().str("name", s.name).num("start", s.start).num("end", s.end).done();
  }
  j.raw("spans", list + "]");
}

Options parse(int argc, char** argv) {
  Options o;
  auto value = [&](int& i) -> const char* {
    if (i + 1 >= argc) throw std::invalid_argument(std::string(argv[i]) + " needs a value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--workload") o.workload = value(i);
    else if (a == "--seed") o.seed = std::strtoull(value(i), nullptr, 10);
    else if (a == "--warmup") o.warmup = std::strtod(value(i), nullptr);
    else if (a == "--measure") o.measure = std::strtod(value(i), nullptr);
    else if (a == "--parallel") o.parallel = true;
    else if (a == "--mode") o.mode = value(i);
    else throw std::invalid_argument("unknown argument '" + std::string(a) + "'");
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse(argc, argv);
    const ClusterConfig cfg = workload_config(o);
    Json j;
    j.str("workload", o.workload).num("seed", static_cast<double>(o.seed));
    if (o.mode == "point") {
      add_point(j, run_point(cfg, /*sampled=*/false));
      j.num("peak_rss_mb", static_cast<double>(usage().ru_maxrss) / 1024.0);
    } else if (o.mode == "sampled") {
      add_sampled(j, cfg);
    } else if (o.mode == "phases") {
      add_phases(j, cfg);
    } else {
      throw std::invalid_argument("unknown mode '" + o.mode + "'");
    }
    std::printf("%s\n", j.done().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::printf("%s\n", Json().str("error", e.what()).done().c_str());
    return 2;
  }
}
