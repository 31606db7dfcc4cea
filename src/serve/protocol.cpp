#include "serve/protocol.hpp"

#include <cstdio>

#include "util/hash.hpp"

namespace socpower::serve {

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

// ---- StructuralConfig ------------------------------------------------------

StructuralConfig StructuralConfig::from(const core::CoEstimatorConfig& cfg) {
  StructuralConfig s;
  core::copy_knobs(cfg, &s.config, core::KnobScope::kStructural);
  return s;
}

void StructuralConfig::apply(core::CoEstimatorConfig* cfg) const {
  core::copy_knobs(config, cfg, core::KnobScope::kStructural);
}

std::string session_key(const SystemParams& system,
                        const StructuralConfig& structural) {
  WireWriter w;
  dist::encode(w, system);
  dist::encode(w, structural);
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(util::fnv1a64(w.bytes())));
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

}  // namespace socpower::serve
