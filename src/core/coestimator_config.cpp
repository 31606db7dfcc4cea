#include "core/coestimator_config.hpp"

#include <algorithm>
#include <cstdio>

#include "core/estimators/registry.hpp"
#include "hw/analytical.hpp"

namespace socpower::core {

std::vector<cfsm::EmittedEvent> effective_emissions(
    std::vector<cfsm::EmittedEvent> ems) {
  // Stable sort groups duplicates while preserving emission order within
  // each event, so the last element of a group is the latest emission — the
  // one the receiver observes.
  std::stable_sort(ems.begin(), ems.end(),
                   [](const auto& a, const auto& b) { return a.event < b.event; });
  std::size_t w = 0;
  for (std::size_t i = 0; i < ems.size();) {
    std::size_t last = i;
    while (last + 1 < ems.size() && ems[last + 1].event == ems[i].event)
      ++last;
    ems[w++] = ems[last];
    i = last + 1;
  }
  ems.resize(w);
  return ems;
}

const char* interconnect_name(InterconnectKind k) {
  switch (k) {
    case InterconnectKind::kBus: return "bus";
    case InterconnectKind::kNoc: return "noc";
  }
  return "?";
}

const char* acceleration_name(Acceleration a) {
  switch (a) {
    case Acceleration::kNone: return "none";
    case Acceleration::kCaching: return "caching";
    case Acceleration::kMacroModel: return "macromodel";
    case Acceleration::kSampling: return "sampling";
  }
  return "?";
}

std::string RunResults::summary() const {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "total=%s cpu=%s hw=%s bus=%s cache=%s  end=%llu cycles  "
      "reactions=%llu (sw=%llu hw=%llu) iss_calls=%llu wall=%.3fs%s",
      format_energy(total_energy).c_str(), format_energy(cpu_energy).c_str(),
      format_energy(hw_energy).c_str(), format_energy(bus_energy).c_str(),
      format_energy(cache_energy).c_str(),
      static_cast<unsigned long long>(end_time),
      static_cast<unsigned long long>(reactions),
      static_cast<unsigned long long>(sw_reactions),
      static_cast<unsigned long long>(hw_reactions),
      static_cast<unsigned long long>(iss_invocations), wall_seconds,
      truncated ? " [TRUNCATED]" : "");
  return buf;
}

std::vector<std::string> CoEstimatorConfig::validate() const {
  std::vector<std::string> errs;
  auto err = [&errs](const char* fmt, auto... args) {
    char buf[256];
    std::snprintf(buf, sizeof buf, fmt, args...);
    errs.emplace_back(buf);
  };

  if (electrical.vdd_volts <= 0.0)
    err("electrical.vdd_volts must be > 0 (got %g)", electrical.vdd_volts);
  if (electrical.clock_hz <= 0.0)
    err("electrical.clock_hz must be > 0 (got %g)", electrical.clock_hz);
  if (data_nj_per_toggle < 0.0)
    err("data_nj_per_toggle must be >= 0 (got %g)", data_nj_per_toggle);
  if (bus_wait_current_ma < 0.0)
    err("bus_wait_current_ma must be >= 0 (got %g)", bus_wait_current_ma);
  if (rtos.dispatch_current_ma < 0.0)
    err("rtos.dispatch_current_ma must be >= 0 (got %g)",
        rtos.dispatch_current_ma);

  if (iss.memory_bytes == 0)
    err("iss.memory_bytes must be > 0 — the ISS needs code and data room");

  if (cores == 0)
    err("cores must be > 0 — the software tasks need at least one CPU");
  if (cores > 64)
    err("cores must be <= 64 (got %u) — each core instantiates its own ISS "
        "and L1",
        cores);

  if (interconnect == InterconnectKind::kNoc) {
    if (noc.link_cap_f <= 0.0)
      err("noc.link_cap_f must be > 0 (got %g) — a zero-capacitance link "
          "makes every NoC transfer free and the energy model vacuous",
          noc.link_cap_f);
    if (noc.mesh_cols == 0 || noc.mesh_rows == 0)
      err("noc mesh geometry invalid (cols=%u rows=%u): both must be > 0",
          noc.mesh_cols, noc.mesh_rows);
    if (noc.flit_bits == 0 || noc.flit_bits > 64)
      err("noc.flit_bits must be in [1, 64] (got %u) — flits pack into one "
          "uint64_t link word",
          noc.flit_bits);
    if (noc.mesh_cols > 0 && noc.mesh_rows > 0 &&
        noc.memory_node >= static_cast<int>(noc.nodes()))
      err("noc.memory_node=%d is outside the %ux%u mesh", noc.memory_node,
          noc.mesh_cols, noc.mesh_rows);
  }

  if (coherence.enabled) {
    if (coherence.l1.line_bytes == 0 || coherence.l1.size_bytes == 0 ||
        coherence.l1.associativity == 0 || coherence.l1.num_sets() == 0)
      err("coherence.l1 geometry invalid (size=%u line=%u assoc=%u): all "
          "must be > 0 with size >= line * associativity",
          coherence.l1.size_bytes, coherence.l1.line_bytes,
          coherence.l1.associativity);
    if (coherence.l2_access_energy < 0.0 || coherence.invalidate_energy < 0.0)
      err("coherence energies must be >= 0 (l2=%g invalidate=%g)",
          coherence.l2_access_energy, coherence.invalidate_energy);
  }

  if (bus.addr_bits == 0)
    err("bus.addr_bits must be > 0 — a zero-width address bus cannot "
        "address the shared memory");
  if (bus.data_bits == 0)
    err("bus.data_bits must be > 0 — a zero-width data bus moves no bytes");
  if (bus.dma_block_size == 0)
    err("bus.dma_block_size must be > 0 — each grant must move at least "
        "one byte");
  if (bus.line_cap_f < 0.0)
    err("bus.line_cap_f must be >= 0 (got %g)", bus.line_cap_f);
  if (bus.handshake_toggles < 0.0)
    err("bus.handshake_toggles must be >= 0 (got %g)", bus.handshake_toggles);

  if (enable_icache) {
    if (icache.line_bytes == 0 || icache.size_bytes == 0 ||
        icache.associativity == 0 || icache.num_sets() == 0)
      err("icache geometry invalid (size=%u line=%u assoc=%u): all must be "
          "> 0 with size >= line * associativity",
          icache.size_bytes, icache.line_bytes, icache.associativity);
    if (icache.hit_energy < 0.0 || icache.miss_energy < 0.0)
      err("icache energies must be >= 0 (hit=%g miss=%g)", icache.hit_energy,
          icache.miss_energy);
  }

  if (energy_cache.thresh_variance < 0.0)
    err("energy_cache.thresh_variance must be >= 0 (got %g)",
        energy_cache.thresh_variance);
  if (sampling.keep_ratio <= 0.0 || sampling.keep_ratio > 1.0)
    err("sampling.keep_ratio must be in (0, 1] (got %g)",
        sampling.keep_ratio);
  if (sampling.k_memory == 0)
    err("sampling.k_memory must be > 0 — the compactor buffers K symbols "
        "per selection round");

  if (hw_reaction_cache && hw_reaction_cache_max_entries == 0)
    err("hw_reaction_cache_max_entries must be > 0 with hw_reaction_cache "
        "on — a zero-entry table can never hit; disable the cache instead");

  if (hw_flush_threads != 1 && !hw_batch)
    err("hw_flush_threads=%u requested with hw_batch off: the offline flush "
        "never runs, so the parallelism is silently dead — set "
        "hw_batch=true or hw_flush_threads=1",
        hw_flush_threads);

  if (hw_analytical_calibration_vectors == 0)
    err("hw_analytical_calibration_vectors must be > 0 — the analytical "
        "backend least-squares-fits %zu coefficients per unit from these "
        "gate-level samples, and zero samples fit nothing",
        hw::kAnalyticalTerms);
  if (hw_analytical_calibration_vectors > (1u << 20))
    err("hw_analytical_calibration_vectors must be <= %u (got %u) — beyond "
        "that the calibration prefix costs more than the gate-level run it "
        "replaces",
        1u << 20, hw_analytical_calibration_vectors);
  if (hw_leakage_nw_per_gate < 0.0)
    err("hw_leakage_nw_per_gate must be >= 0 (got %g)",
        hw_leakage_nw_per_gate);
  if (hw_temperature_k <= 0.0)
    err("hw_temperature_k must be > 0 (got %g) — the leakage model scales "
        "exponentially from the 300 K reference",
        hw_temperature_k);
  if (hw_channel_length_nm <= 0.0)
    err("hw_channel_length_nm must be > 0 (got %g) — leakage scales as "
        "250 / channel length",
        hw_channel_length_nm);

  if (dist_rpc_timeout_ms == 0)
    err("dist_rpc_timeout_ms must be > 0 — a zero timeout declares every "
        "remote worker dead before it can answer");
  if (dist_flush_chunk == 0)
    err("dist_flush_chunk must be > 0 — a zero slice can never ship a "
        "batch entry");
  if (dist_workers > 256)
    err("dist_workers must be <= 256 (got %u) — each worker is a forked "
        "process",
        dist_workers);

  if (max_reactions == 0)
    err("max_reactions must be > 0 — a zero guard truncates every run at "
        "the first transition");

  const EstimatorRegistry& reg = estimator_registry();
  for (const auto& [role, name] :
       {std::pair<const char*, const std::string*>{"sw", &estimators.sw},
        {"hw_gate", &estimators.hw_gate},
        {"hw_rtl", &estimators.hw_rtl},
        {"cache", &estimators.cache},
        {"bus", &estimators.bus}}) {
    if (!reg.contains(*name))
      err("estimators.%s backend \"%s\" is not registered (known: %s)", role,
          name->c_str(), reg.joined_names().c_str());
  }
  if (interconnect == InterconnectKind::kNoc &&
      !reg.contains(estimators.noc))
    err("estimators.noc backend \"%s\" is not registered (known: %s)",
        estimators.noc.c_str(), reg.joined_names().c_str());
  if (hw_remote) {
    for (const auto& [role, name] :
         {std::pair<const char*, const std::string*>{"hw_gate",
                                                     &estimators.hw_gate},
          {"hw_rtl", &estimators.hw_rtl}}) {
      const std::string remote = *name + ".remote";
      if (!reg.contains(remote))
        err("hw_remote selects estimators.%s backend \"%s\", which is not "
            "registered (known: %s)",
            role, remote.c_str(), reg.joined_names().c_str());
    }
  }
  return errs;
}

void copy_knobs(const CoEstimatorConfig& src, CoEstimatorConfig* dst,
                KnobScope scope) {
  detail::visit_knobs(
      [scope](const char*, KnobScope s, const auto& from, auto& to) {
        if (s == scope) to = from;
      },
      src, *dst);
}

const char* structural_mismatch(const CoEstimatorConfig& a,
                                const CoEstimatorConfig& b) {
  const char* first = nullptr;
  detail::visit_knobs(
      [&first](const char* name, KnobScope scope, const auto& x,
               const auto& y) {
        if (!first && scope == KnobScope::kStructural && x != y) first = name;
      },
      a, b);
  return first;
}

}  // namespace socpower::core
