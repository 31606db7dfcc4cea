#include "telemetry/registry.hpp"

#include <cstdio>

#include "util/table.hpp"

namespace socpower::telemetry {

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = counter_index_.find(name);
  if (it != counter_index_.end()) return *it->second;
  Counter& c = counters_.emplace_back();
  counter_index_.emplace(std::string(name), &c);
  return c;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = gauge_index_.find(name);
  if (it != gauge_index_.end()) return *it->second;
  Gauge& g = gauges_.emplace_back();
  gauge_index_.emplace(std::string(name), &g);
  return g;
}

HistogramStat& Registry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = histogram_index_.find(name);
  if (it != histogram_index_.end()) return *it->second;
  HistogramStat& h = histograms_.emplace_back();
  histogram_index_.emplace(std::string(name), &h);
  return h;
}

Snapshot Registry::snapshot() const {
  Snapshot s;
  std::lock_guard<std::mutex> lk(mu_);
  s.counters.reserve(counter_index_.size());
  for (const auto& [name, c] : counter_index_)
    s.counters.push_back({name, c->value()});
  s.gauges.reserve(gauge_index_.size());
  for (const auto& [name, g] : gauge_index_)
    s.gauges.push_back({name, g->value(), g->peak()});
  s.histograms.reserve(histogram_index_.size());
  for (const auto& [name, h] : histogram_index_) {
    const RunningStats st = h->stats();
    s.histograms.push_back(
        {name, st.count(), st.mean(), st.min(), st.max(), st.sum()});
  }
  return s;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  for (Counter& c : counters_) c.value_.store(0, std::memory_order_relaxed);
  for (Gauge& g : gauges_) {
    g.value_.store(0, std::memory_order_relaxed);
    g.peak_.store(0, std::memory_order_relaxed);
  }
  for (HistogramStat& h : histograms_) {
    std::lock_guard<std::mutex> hlk(h.mu_);
    h.reset_locked();
  }
}

Registry& registry() {
  static Registry r;
  return r;
}

std::uint64_t Snapshot::counter_or(std::string_view name,
                                   std::uint64_t fallback) const {
  for (const CounterValue& c : counters)
    if (c.name == name) return c.value;
  return fallback;
}

namespace {

/// Minimal JSON string escaping; metric names are identifiers by convention
/// but the exporter must not be able to emit malformed output.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

}  // namespace

std::string Snapshot::to_json() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const CounterValue& c : counters) {
    if (!first) out += ',';
    first = false;
    out += '"' + json_escape(c.name) + "\":" + std::to_string(c.value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const GaugeValue& g : gauges) {
    if (!first) out += ',';
    first = false;
    out += '"' + json_escape(g.name) + "\":{\"value\":" +
           std::to_string(g.value) + ",\"peak\":" + std::to_string(g.peak) +
           '}';
  }
  out += "},\"histograms\":{";
  first = true;
  for (const HistogramValue& h : histograms) {
    if (!first) out += ',';
    first = false;
    out += '"' + json_escape(h.name) +
           "\":{\"count\":" + std::to_string(h.count) +
           ",\"mean\":" + json_double(h.mean) +
           ",\"min\":" + json_double(h.min) +
           ",\"max\":" + json_double(h.max) +
           ",\"sum\":" + json_double(h.sum) + '}';
  }
  out += "}}";
  return out;
}

std::string Snapshot::render_table() const {
  std::string out;
  if (!counters.empty()) {
    TextTable t({"counter", "value"});
    for (const CounterValue& c : counters)
      t.add_row({c.name, std::to_string(c.value)});
    out += t.render();
  }
  if (!gauges.empty()) {
    TextTable t({"gauge", "value", "peak"});
    for (const GaugeValue& g : gauges)
      t.add_row({g.name, std::to_string(g.value), std::to_string(g.peak)});
    out += t.render();
  }
  if (!histograms.empty()) {
    TextTable t({"histogram", "count", "mean", "min", "max"});
    for (const HistogramValue& h : histograms)
      t.add_row({h.name, std::to_string(h.count), TextTable::num(h.mean),
                 TextTable::num(h.min), TextTable::num(h.max)});
    out += t.render();
  }
  return out;
}

}  // namespace socpower::telemetry
