#include "serve/protocol.hpp"

#include <cstdio>

namespace socpower::serve {

using dist::WireReader;
using dist::WireWriter;

// ---- SystemParams ----------------------------------------------------------

std::int64_t SystemParams::get(const std::string& key,
                               std::int64_t fallback) const {
  for (const auto& [k, v] : kv)
    if (k == key) return v;
  return fallback;
}

void SystemParams::set(const std::string& key, std::int64_t value) {
  for (auto& [k, v] : kv) {
    if (k == key) {
      v = value;
      return;
    }
  }
  kv.emplace_back(key, value);
}

void put_system(WireWriter& w, const SystemParams& s) {
  dist::put_string(w, s.name);
  w.put_u32(static_cast<std::uint32_t>(s.kv.size()));
  for (const auto& [k, v] : s.kv) {
    dist::put_string(w, k);
    w.put_u64(static_cast<std::uint64_t>(v));
  }
}

bool get_system(WireReader& r, SystemParams* out) {
  *out = {};
  if (!dist::get_string(r, &out->name)) return false;
  const std::uint32_t n = r.get_u32();
  if (n > dist::kMaxWireElems) {
    r.mark_bad();
    return false;
  }
  out->kv.reserve(n);
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    std::string k;
    if (!dist::get_string(r, &k)) return false;
    const auto v = static_cast<std::int64_t>(r.get_u64());
    out->kv.emplace_back(std::move(k), v);
  }
  return r.ok();
}

// ---- StructuralConfig ------------------------------------------------------

StructuralConfig StructuralConfig::from(const core::CoEstimatorConfig& cfg) {
  StructuralConfig s;
  core::copy_knobs(cfg, &s.config, core::KnobScope::kStructural);
  return s;
}

void StructuralConfig::apply(core::CoEstimatorConfig* cfg) const {
  core::copy_knobs(config, cfg, core::KnobScope::kStructural);
}

void put_structural(WireWriter& w, const StructuralConfig& s) {
  dist::put_knobs(w, s.config, core::KnobScope::kStructural);
}

bool get_structural(WireReader& r, StructuralConfig* out) {
  *out = {};
  return dist::get_knobs(r, &out->config, core::KnobScope::kStructural);
}

std::string session_key(const SystemParams& system,
                        const StructuralConfig& structural) {
  WireWriter w;
  put_system(w, system);
  put_structural(w, structural);
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a 64 offset basis
  for (const std::uint8_t b : w.bytes()) {
    h ^= b;
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return std::string(buf);
}

// ---- RunRequest ------------------------------------------------------------

RunRequest RunRequest::from(const core::CoEstimatorConfig& cfg) {
  RunRequest rr;
  core::copy_knobs(cfg, &rr.config, core::KnobScope::kRun);
  return rr;
}

void RunRequest::apply(core::CoEstimatorConfig* cfg) const {
  core::copy_knobs(config, cfg, core::KnobScope::kRun);
}

void put_run_request(WireWriter& w, const RunRequest& rr) {
  w.put_u8(rr.separate ? 1 : 0);
  dist::put_knobs(w, rr.config, core::KnobScope::kRun);
}

bool get_run_request(WireReader& r, RunRequest* out) {
  *out = {};
  out->separate = r.get_u8() != 0;
  return dist::get_knobs(r, &out->config, core::KnobScope::kRun);
}

// ---- RequestStats ----------------------------------------------------------

void put_request_stats(WireWriter& w, const RequestStats& s) {
  w.put_f64(s.wall_ms);
  w.put_u64(s.run_index);
  w.put_u8(s.restored_session ? 1 : 0);
  w.put_u64(s.ecache_hits);
  w.put_u64(s.warm_hits);
  w.put_u64(s.warm_fills);
}

bool get_request_stats(WireReader& r, RequestStats* out) {
  *out = {};
  out->wall_ms = r.get_f64();
  out->run_index = r.get_u64();
  out->restored_session = r.get_u8() != 0;
  out->ecache_hits = r.get_u64();
  out->warm_hits = r.get_u64();
  out->warm_fills = r.get_u64();
  return r.ok();
}

// ---- ServeStatsReply -------------------------------------------------------

void put_stats_reply(WireWriter& w, const ServeStatsReply& s) {
  w.put_u64(s.sessions);
  w.put_u64(s.requests);
  w.put_u64(s.checkpoint_bytes);
  w.put_u64(s.restore_hits);
  w.put_u64(s.evictions);
  w.put_u64(s.latency_count);
  w.put_f64(s.latency_mean_ms);
  w.put_f64(s.latency_min_ms);
  w.put_f64(s.latency_max_ms);
  dist::put_string(w, s.rendered);
}

bool get_stats_reply(WireReader& r, ServeStatsReply* out) {
  *out = {};
  out->sessions = r.get_u64();
  out->requests = r.get_u64();
  out->checkpoint_bytes = r.get_u64();
  out->restore_hits = r.get_u64();
  out->evictions = r.get_u64();
  out->latency_count = r.get_u64();
  out->latency_mean_ms = r.get_f64();
  out->latency_min_ms = r.get_f64();
  out->latency_max_ms = r.get_f64();
  return dist::get_string(r, &out->rendered) && r.ok();
}

}  // namespace socpower::serve
