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
  s.electrical = cfg.electrical;
  s.iss = cfg.iss;
  s.rtos = cfg.rtos;
  s.data_nj_per_toggle = cfg.data_nj_per_toggle;
  s.estimators = cfg.estimators;
  s.hw_remote = cfg.hw_remote;
  s.cores = cfg.cores;
  s.interconnect = static_cast<std::uint8_t>(cfg.interconnect);
  s.coherence_enabled = cfg.coherence.enabled;
  return s;
}

void StructuralConfig::apply(core::CoEstimatorConfig* cfg) const {
  cfg->electrical = electrical;
  cfg->iss = iss;
  cfg->rtos = rtos;
  cfg->data_nj_per_toggle = data_nj_per_toggle;
  cfg->estimators = estimators;
  cfg->hw_remote = hw_remote;
  cfg->cores = cores;
  cfg->interconnect = static_cast<core::InterconnectKind>(interconnect);
  cfg->coherence.enabled = coherence_enabled;
}

void put_structural(WireWriter& w, const StructuralConfig& s) {
  w.put_f64(s.electrical.vdd_volts);
  w.put_f64(s.electrical.clock_hz);
  w.put_u32(s.iss.memory_bytes);
  w.put_u32(s.iss.pipeline_fill_cycles);
  w.put_u32(s.iss.taken_branch_penalty);
  w.put_u64(s.iss.default_max_instructions);
  w.put_u8(s.iss.block_cache ? 1 : 0);
  w.put_u32(s.iss.block_cache_max_blocks);
  w.put_u32(s.iss.block_cache_max_ops);
  w.put_u64(s.rtos.dispatch_cycles);
  w.put_f64(s.rtos.dispatch_current_ma);
  w.put_f64(s.data_nj_per_toggle);
  dist::put_string(w, s.estimators.sw);
  dist::put_string(w, s.estimators.hw_gate);
  dist::put_string(w, s.estimators.hw_rtl);
  dist::put_string(w, s.estimators.cache);
  dist::put_string(w, s.estimators.bus);
  dist::put_string(w, s.estimators.noc);
  w.put_u8(s.hw_remote ? 1 : 0);
  w.put_u32(s.cores);
  w.put_u8(s.interconnect);
  w.put_u8(s.coherence_enabled ? 1 : 0);
}

bool get_structural(WireReader& r, StructuralConfig* out) {
  *out = {};
  out->electrical.vdd_volts = r.get_f64();
  out->electrical.clock_hz = r.get_f64();
  out->iss.memory_bytes = r.get_u32();
  out->iss.pipeline_fill_cycles = r.get_u32();
  out->iss.taken_branch_penalty = r.get_u32();
  out->iss.default_max_instructions = r.get_u64();
  out->iss.block_cache = r.get_u8() != 0;
  out->iss.block_cache_max_blocks = r.get_u32();
  out->iss.block_cache_max_ops = r.get_u32();
  out->rtos.dispatch_cycles = r.get_u64();
  out->rtos.dispatch_current_ma = r.get_f64();
  out->data_nj_per_toggle = r.get_f64();
  if (!dist::get_string(r, &out->estimators.sw)) return false;
  if (!dist::get_string(r, &out->estimators.hw_gate)) return false;
  if (!dist::get_string(r, &out->estimators.hw_rtl)) return false;
  if (!dist::get_string(r, &out->estimators.cache)) return false;
  if (!dist::get_string(r, &out->estimators.bus)) return false;
  if (!dist::get_string(r, &out->estimators.noc)) return false;
  out->hw_remote = r.get_u8() != 0;
  out->cores = r.get_u32();
  out->interconnect = r.get_u8();
  if (out->interconnect >
      static_cast<std::uint8_t>(core::InterconnectKind::kNoc)) {
    r.mark_bad();
    return false;
  }
  out->coherence_enabled = r.get_u8() != 0;
  return r.ok();
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
  rr.accel = static_cast<std::uint8_t>(cfg.accel);
  rr.verify_lowlevel = cfg.verify_lowlevel;
  rr.accelerate_hw = cfg.accelerate_hw;
  rr.hw_batch = cfg.hw_batch;
  rr.hw_flush_threads = cfg.hw_flush_threads;
  rr.hw_reaction_cache = cfg.hw_reaction_cache;
  rr.hw_reaction_cache_max_entries = cfg.hw_reaction_cache_max_entries;
  rr.sync_spin = cfg.sync_spin;
  rr.cache_hit_spin = cfg.cache_hit_spin;
  rr.ecache_thresh_variance = cfg.energy_cache.thresh_variance;
  rr.ecache_thresh_iss_calls = cfg.energy_cache.thresh_iss_calls;
  rr.max_reactions = cfg.max_reactions;
  rr.hw_analytical_calibration_vectors = cfg.hw_analytical_calibration_vectors;
  rr.hw_leakage_nw_per_gate = cfg.hw_leakage_nw_per_gate;
  rr.hw_temperature_k = cfg.hw_temperature_k;
  rr.hw_channel_length_nm = cfg.hw_channel_length_nm;
  return rr;
}

void RunRequest::apply(core::CoEstimatorConfig* cfg) const {
  cfg->accel = static_cast<core::Acceleration>(accel);
  cfg->verify_lowlevel = verify_lowlevel;
  cfg->accelerate_hw = accelerate_hw;
  cfg->hw_batch = hw_batch;
  cfg->hw_flush_threads = hw_flush_threads;
  cfg->hw_reaction_cache = hw_reaction_cache;
  cfg->hw_reaction_cache_max_entries =
      static_cast<std::size_t>(hw_reaction_cache_max_entries);
  cfg->sync_spin = sync_spin;
  cfg->cache_hit_spin = cache_hit_spin;
  cfg->energy_cache.thresh_variance = ecache_thresh_variance;
  cfg->energy_cache.thresh_iss_calls =
      static_cast<std::size_t>(ecache_thresh_iss_calls);
  cfg->max_reactions = max_reactions;
  cfg->hw_analytical_calibration_vectors = hw_analytical_calibration_vectors;
  cfg->hw_leakage_nw_per_gate = hw_leakage_nw_per_gate;
  cfg->hw_temperature_k = hw_temperature_k;
  cfg->hw_channel_length_nm = hw_channel_length_nm;
}

void put_run_request(WireWriter& w, const RunRequest& rr) {
  w.put_u8(rr.accel);
  w.put_u8(rr.separate ? 1 : 0);
  w.put_u8(rr.verify_lowlevel ? 1 : 0);
  w.put_u8(rr.accelerate_hw ? 1 : 0);
  w.put_u8(rr.hw_batch ? 1 : 0);
  w.put_u32(rr.hw_flush_threads);
  w.put_u8(rr.hw_reaction_cache ? 1 : 0);
  w.put_u64(rr.hw_reaction_cache_max_entries);
  w.put_u32(rr.sync_spin);
  w.put_u32(rr.cache_hit_spin);
  w.put_f64(rr.ecache_thresh_variance);
  w.put_u64(rr.ecache_thresh_iss_calls);
  w.put_u64(rr.max_reactions);
  w.put_u32(rr.hw_analytical_calibration_vectors);
  w.put_f64(rr.hw_leakage_nw_per_gate);
  w.put_f64(rr.hw_temperature_k);
  w.put_f64(rr.hw_channel_length_nm);
}

bool get_run_request(WireReader& r, RunRequest* out) {
  *out = {};
  out->accel = r.get_u8();
  if (out->accel > static_cast<std::uint8_t>(core::Acceleration::kSampling)) {
    r.mark_bad();
    return false;
  }
  out->separate = r.get_u8() != 0;
  out->verify_lowlevel = r.get_u8() != 0;
  out->accelerate_hw = r.get_u8() != 0;
  out->hw_batch = r.get_u8() != 0;
  out->hw_flush_threads = r.get_u32();
  out->hw_reaction_cache = r.get_u8() != 0;
  out->hw_reaction_cache_max_entries = r.get_u64();
  out->sync_spin = r.get_u32();
  out->cache_hit_spin = r.get_u32();
  out->ecache_thresh_variance = r.get_f64();
  out->ecache_thresh_iss_calls = r.get_u64();
  out->max_reactions = r.get_u64();
  out->hw_analytical_calibration_vectors = r.get_u32();
  out->hw_leakage_nw_per_gate = r.get_f64();
  out->hw_temperature_k = r.get_f64();
  out->hw_channel_length_nm = r.get_f64();
  return r.ok();
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
