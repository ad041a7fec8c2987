#include "sim/obs/registry.hpp"

#include <cassert>
#include <cstdio>

namespace dclue::obs {

namespace {

void append_double(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

}  // namespace

const char* metric_kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:      return "counter";
    case MetricKind::kGauge:        return "gauge";
    case MetricKind::kAccum:        return "accum";
    case MetricKind::kTally:        return "tally";
    case MetricKind::kTimeWeighted: return "time_weighted";
    case MetricKind::kHistogram:    return "histogram";
    case MetricKind::kGaugeFn:      return "gauge";
  }
  return "unknown";
}

const MetricValue* Snapshot::find(std::string_view name) const {
  for (const MetricValue& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void Snapshot::append_json(std::string& out, int indent) const {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  out += "[";
  bool first = true;
  for (const MetricValue& m : metrics) {
    out += first ? "\n" : ",\n";
    first = false;
    out += pad;
    out += "  {\"name\": \"";
    out += m.name;
    out += "\", \"kind\": \"";
    out += metric_kind_name(m.kind);
    out += "\", \"value\": ";
    append_double(out, m.value);
    if (m.kind == MetricKind::kTally || m.kind == MetricKind::kHistogram) {
      out += ", \"count\": ";
      append_u64(out, m.count);
      out += ", \"sum\": ";
      append_double(out, m.sum);
      out += ", \"mean\": ";
      append_double(out, m.mean);
      out += ", \"min\": ";
      append_double(out, m.min);
      out += ", \"max\": ";
      append_double(out, m.max);
      out += ", \"stddev\": ";
      append_double(out, m.stddev);
    }
    if (m.kind == MetricKind::kHistogram) {
      out += ", \"p50\": ";
      append_double(out, m.p50);
      out += ", \"p95\": ";
      append_double(out, m.p95);
      out += ", \"p99\": ";
      append_double(out, m.p99);
    }
    out += "}";
  }
  out += "\n";
  out += pad;
  out += "]";
}

void MetricsRegistry::add_entry(std::string name, MetricKind kind, void* ptr) {
  entries_.push_back(Entry{std::move(name), kind, ptr, {}});
}

void MetricsRegistry::gauge_fn(std::string name, std::function<double()> fn) {
  entries_.push_back(Entry{std::move(name), MetricKind::kGaugeFn, nullptr,
                           std::move(fn)});
}

void MetricsRegistry::bind(std::string name, Counter* c) {
  add_entry(std::move(name), MetricKind::kCounter, c);
}
void MetricsRegistry::bind(std::string name, Gauge* g) {
  add_entry(std::move(name), MetricKind::kGauge, g);
}
void MetricsRegistry::bind(std::string name, Accum* a) {
  add_entry(std::move(name), MetricKind::kAccum, a);
}
void MetricsRegistry::bind(std::string name, Tally* t) {
  add_entry(std::move(name), MetricKind::kTally, t);
}
void MetricsRegistry::bind(std::string name, TimeWeightedAvg* tw) {
  add_entry(std::move(name), MetricKind::kTimeWeighted, tw);
}
void MetricsRegistry::bind(std::string name, Histogram* h) {
  add_entry(std::move(name), MetricKind::kHistogram, h);
}

void MetricsRegistry::on_reset(std::function<void(sim::Time)> hook) {
  reset_hooks_.push_back(std::move(hook));
}

void MetricsRegistry::reset_window(sim::Time now) {
  for (const auto& hook : reset_hooks_) hook(now);
  for (Entry& e : entries_) {
    switch (e.kind) {
      case MetricKind::kCounter:
        static_cast<Counter*>(e.ptr)->reset();
        break;
      case MetricKind::kAccum:
        static_cast<Accum*>(e.ptr)->reset();
        break;
      case MetricKind::kTally:
        static_cast<Tally*>(e.ptr)->reset();
        break;
      case MetricKind::kTimeWeighted:
        static_cast<TimeWeightedAvg*>(e.ptr)->reset(now);
        break;
      case MetricKind::kHistogram:
        static_cast<Histogram*>(e.ptr)->reset();
        break;
      case MetricKind::kGauge:
      case MetricKind::kGaugeFn:
        break;  // levels persist across window boundaries
    }
  }
}

Snapshot MetricsRegistry::snapshot(sim::Time now) const {
  Snapshot snap;
  snap.taken_at = now;
  snap.metrics.reserve(entries_.size());
  for (const Entry& e : entries_) {
    MetricValue m;
    m.name = e.name;
    m.kind = e.kind;
    switch (e.kind) {
      case MetricKind::kCounter: {
        const auto* c = static_cast<const Counter*>(e.ptr);
        m.value = static_cast<double>(c->count());
        m.count = c->count();
        break;
      }
      case MetricKind::kGauge:
        m.value = static_cast<const Gauge*>(e.ptr)->value();
        break;
      case MetricKind::kAccum:
        m.value = static_cast<const Accum*>(e.ptr)->value();
        break;
      case MetricKind::kTally: {
        const auto* t = static_cast<const Tally*>(e.ptr);
        m.value = t->mean();
        m.count = t->count();
        m.sum = t->sum();
        m.mean = t->mean();
        m.min = t->min();
        m.max = t->max();
        m.stddev = t->stddev();
        m.tally = *t;
        break;
      }
      case MetricKind::kTimeWeighted:
        m.value = static_cast<const TimeWeightedAvg*>(e.ptr)->average(now);
        break;
      case MetricKind::kHistogram: {
        const auto* h = static_cast<const Histogram*>(e.ptr);
        const Tally& t = h->tally();
        m.value = t.mean();
        m.count = t.count();
        m.sum = t.sum();
        m.mean = t.mean();
        m.min = t.min();
        m.max = t.max();
        m.stddev = t.stddev();
        m.p50 = h->quantile(0.50);
        m.p95 = h->quantile(0.95);
        m.p99 = h->quantile(0.99);
        m.histogram = *h;
        break;
      }
      case MetricKind::kGaugeFn:
        m.kind = MetricKind::kGauge;
        m.value = e.fn();
        break;
    }
    snap.metrics.push_back(std::move(m));
  }
  return snap;
}

}  // namespace dclue::obs
