#include "core/estimators/hw_estimator.hpp"

#include <chrono>

#include "telemetry/registry.hpp"
#include "telemetry/trace.hpp"

namespace socpower::core {

hw::ReactionCacheConfig HwEstimatorBase::reaction_cache_config() const {
  hw::ReactionCacheConfig rc;
  rc.enabled = config_->hw_reaction_cache;
  rc.max_entries = config_->hw_reaction_cache_max_entries;
  rc.telemetry_prefix = "estimator." + std::string(name()) + ".rcache";
  return rc;
}

void HwEstimatorBase::prepare(const EstimatorContext& ctx) {
  net_ = ctx.network;
  config_ = ctx.config;
  path_tables_ = ctx.path_tables;
  components_ = ctx.components;
  units_.resize(net_->cfsm_count());
  for (const cfsm::CfsmId task : components_) {
    auto u = std::make_unique<Unit>();
    u->image = hwsyn::synthesize_cfsm(net_->cfsm(task));
    u->sim = std::make_unique<hw::GateSim>(u->image.netlist.get(),
                                           hw::TechParams::generic_250nm(),
                                           config_->electrical);
    u->rcache = std::make_unique<hw::ReactionCache>(u->sim.get(),
                                                    reaction_cache_config());
    units_[static_cast<std::size_t>(task)] = std::move(u);
  }
}

void HwEstimatorBase::begin_run() {
  for (const cfsm::CfsmId task : components_) {
    Unit& u = unit(task);
    u.sim->reset();
    // Per-run knobs may have changed between runs; the table itself
    // survives unless they did (warm-start hits across runs are the point).
    u.rcache->configure(reaction_cache_config());
    u.registers_dirty = false;
    u.batch.clear();
  }
  gate_cycles_ = 0;
}

TransitionCost HwEstimatorBase::cost(const TransitionRequest& req) {
  sync_overhead(config_->sync_spin);
  const Joules e = measure(unit(req.task), req);
  return {static_cast<double>(kHwReactionCycles), e, true};
}

void HwEstimatorBase::flush(std::vector<FlushJob>& jobs) {
  for (const cfsm::CfsmId task : components_) {
    Unit* u = &unit(task);
    if (u->batch.empty()) continue;
    jobs.push_back({task, [this, u, task] { return run_flush(*u, task); }});
  }
}

ComponentEstimator::FlushResult HwEstimatorBase::run_flush(Unit& u,
                                                           cfsm::CfsmId task) {
  static telemetry::HistogramStat& batch_size =
      telemetry::registry().histogram("coest.hw_batch_size", 0.0, 1e6, 32);
  static telemetry::HistogramStat& flush_ms =
      telemetry::registry().histogram("coest.hw_flush_ms", 0.0, 1e4, 32);
  FlushResult out;
  const bool telem = telemetry::enabled();
  const auto flush0 = telem ? std::chrono::steady_clock::now()
                            : std::chrono::steady_clock::time_point{};
  SOCPOWER_TRACE_SPAN("coest.hw_flush_unit", 0,
                      static_cast<std::uint64_t>(task));
  batch_size.observe(static_cast<double>(u.batch.size()));
  out = drain_into(u, task, /*first=*/true);
  if (telem)
    flush_ms.observe(std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - flush0)
                         .count());
  return out;
}

ComponentEstimator::FlushResult HwEstimatorBase::drain_batch(cfsm::CfsmId task,
                                                             bool first) {
  return drain_into(unit(task), task, first);
}

ComponentEstimator::FlushResult HwEstimatorBase::drain_into(Unit& u,
                                                            cfsm::CfsmId task,
                                                            bool first) {
  FlushResult out;
  out.entries.reserve(u.batch.size());
  if (first) {
    sync_overhead(config_->sync_spin);  // one batch hand-off per component
    u.sim->reset();
  }
  for (const BatchEntry& entry : u.batch) {
    if (entry.path == cfsm::kNoPath) {
      u.sim->reset();
      continue;
    }
    const Joules energy = measure_flush(u, task, entry, &out.gate_cycles);
    out.entries.push_back({entry.time, entry.path, energy});
  }
  u.batch.clear();
  return out;
}

void HwEstimatorBase::stats(RunResults& res) const {
  res.gate_sim_cycles += gate_cycles_;
}

const hwsyn::HwImage* HwEstimatorBase::image(cfsm::CfsmId task) const {
  const auto& u = units_.at(static_cast<std::size_t>(task));
  return u ? &u->image : nullptr;
}

void HwEstimatorBase::resync_if_dirty(cfsm::CfsmId task,
                                      const cfsm::CfsmState& state) {
  Unit& u = unit(task);
  if (!u.registers_dirty) return;
  hwsyn::sync_hw_vars(*u.sim, u.image, state);
  u.registers_dirty = false;
}

void HwEstimatorBase::mark_skipped(cfsm::CfsmId task, bool skipped) {
  unit(task).registers_dirty = skipped;
}

void HwEstimatorBase::reset_unit(cfsm::CfsmId task) { unit(task).sim->reset(); }

void HwEstimatorBase::enqueue(cfsm::CfsmId task, sim::SimTime time,
                              const cfsm::ReactionInputs& inputs,
                              cfsm::PathId path,
                              const cfsm::CfsmState& pre_state) {
  unit(task).batch.push_back({time, inputs, path, pre_state});
}

void HwEstimatorBase::separate_reset(cfsm::CfsmId task) {
  unit(task).sim->reset();
}

Joules HwEstimatorBase::separate_step(cfsm::CfsmId task,
                                      const cfsm::ReactionInputs& inputs) {
  // The Section 2 baseline replays the captured trace through the gate
  // simulator for every hardware unit, whatever its co-estimation kind.
  Unit& u = unit(task);
  hwsyn::stage_hw_reaction(*u.sim, u.image, inputs);
  const Joules e = step_unit(u).energy;
  ++gate_cycles_;
  return e;
}

hw::ReactionCacheStats HwEstimatorBase::reaction_cache_stats() const {
  hw::ReactionCacheStats sum;
  for (const cfsm::CfsmId task : components_) {
    const auto& u = units_[static_cast<std::size_t>(task)];
    if (!u || !u->rcache) continue;
    const hw::ReactionCacheStats& s = u->rcache->stats();
    sum.hits += s.hits;
    sum.misses += s.misses;
    sum.bypassed += s.bypassed;
    sum.insertions += s.insertions;
    sum.capacity_clears += s.capacity_clears;
    sum.evicted_entries += s.evicted_entries;
    sum.invalidations += s.invalidations;
    sum.skipped_gate_evals += s.skipped_gate_evals;
    sum.rejected_imports += s.rejected_imports;
  }
  return sum;
}

BackendWarmState HwEstimatorBase::export_warm_state() const {
  BackendWarmState state;
  for (const cfsm::CfsmId task : components_) {
    const auto& u = units_[static_cast<std::size_t>(task)];
    if (!u || !u->rcache) continue;
    BackendWarmState::UnitReactions ur;
    ur.task = task;
    ur.entries = u->rcache->export_entries();
    state.reactions.push_back(std::move(ur));
  }
  return state;
}

void HwEstimatorBase::import_warm_state(const BackendWarmState& state) {
  for (const BackendWarmState::UnitReactions& ur : state.reactions) {
    const auto idx = static_cast<std::size_t>(ur.task);
    if (idx >= units_.size() || !units_[idx] || !units_[idx]->rcache) continue;
    units_[idx]->rcache->import_entries(ur.entries);
  }
}

ComponentEstimator::WarmCacheCounters HwEstimatorBase::warm_cache_counters()
    const {
  const hw::ReactionCacheStats s = reaction_cache_stats();
  return WarmCacheCounters{s.hits, s.misses};
}

}  // namespace socpower::core
