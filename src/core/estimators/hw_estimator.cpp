#include "core/estimators/hw_estimator.hpp"

#include <chrono>

#include "telemetry/registry.hpp"
#include "telemetry/trace.hpp"

namespace socpower::core {

hw::ReactionCacheConfig HwEstimatorBase::reaction_cache_config() const {
  hw::ReactionCacheConfig rc;
  rc.enabled = config_->hw_reaction_cache;
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
    u->design = hwsyn::shared_design(net_->cfsm(task), config_->electrical);
    u->sim = hwsyn::make_gate_sim(u->design);
    u->rcache = std::make_unique<hw::ReactionCache>(
        u->sim.get(), reaction_cache_config(), u->design->reactions);
    units_[static_cast<std::size_t>(task)] = std::move(u);
  }
}

void HwEstimatorBase::begin_run() {
  for (const cfsm::CfsmId task : components_) {
    Unit& u = unit(task);
    u.sim->reset();
    // Per-run knobs may have changed between runs; the design's table
    // survives them (warm-start hits across runs are the point).
    u.rcache->configure(reaction_cache_config());
    u.registers_dirty = false;
    u.batch.clear();
  }
  gate_cycles_ = 0;
}

void HwEstimatorBase::end_run() {
  // An idle view need not keep a table generation alive: when another
  // estimator of the design clears the table, the old generation is freed
  // then instead of at this estimator's next run.
  for (const cfsm::CfsmId task : components_) unit(task).rcache->release();
}

void HwEstimatorBase::use_private_reaction_tables() {
  for (const cfsm::CfsmId task : components_) {
    Unit& u = unit(task);
    u.rcache = std::make_unique<hw::ReactionCache>(u.sim.get(),
                                                   reaction_cache_config());
  }
}

TransitionCost HwEstimatorBase::cost(const TransitionRequest& req) {
  sync_overhead(config_->sync_spin);
  Unit& u = unit(req.task);
  const std::uint64_t cycles0 = gate_cycles_;
  const Joules e = price(u, req.task, *req.inputs, req.reaction->trace,
                         *req.pre_state, &gate_cycles_);
  // Cross-check only a reaction the gate simulator actually evaluated: the
  // RT-level and fitted analytical paths leave it untouched.
  if (config_->verify_lowlevel && gate_cycles_ != cycles0) verify_gate(u, req);
  return {static_cast<double>(kHwReactionCycles), e, true};
}

void HwEstimatorBase::verify_gate(Unit& u, const TransitionRequest& req) const {
  const std::vector<std::int32_t>& beh_vars = req.post_state->vars;
  std::vector<std::int32_t> hw_vars(beh_vars.size());
  for (std::size_t v = 0; v < hw_vars.size(); ++v)
    hw_vars[v] =
        hwsyn::read_hw_var(*u.sim, u.image(), static_cast<cfsm::VarId>(v));
  verify_lowlevel_match(
      name(), req.task,
      effective_emissions(hwsyn::read_hw_emissions(*u.sim, u.image())),
      effective_emissions(req.reaction->emissions), hw_vars, beh_vars);
}

Joules HwEstimatorBase::gate_step(Unit& u, const cfsm::ReactionInputs& inputs,
                                  std::uint64_t* gate_cycles) {
  hwsyn::stage_hw_reaction(*u.sim, u.image(), inputs);
  const Joules e = u.rcache->step().energy;
  ++*gate_cycles;
  return e;
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
      telemetry::registry().histogram("coest.hw_batch_size");
  static telemetry::HistogramStat& flush_ms =
      telemetry::registry().histogram("coest.hw_flush_ms");
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
  const cfsm::PathTable& paths =
      (*path_tables_)[static_cast<std::size_t>(task)];
  for (const BatchEntry& entry : u.batch) {
    if (entry.path == cfsm::kNoPath) {
      u.sim->reset();
      continue;
    }
    const Joules energy = price(u, task, entry.inputs, paths.path(entry.path),
                                entry.pre, &out.gate_cycles);
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
  return u ? &u->image() : nullptr;
}

const hw::GateSim* HwEstimatorBase::gate_sim(cfsm::CfsmId task) const {
  const auto& u = units_.at(static_cast<std::size_t>(task));
  return u ? u->sim.get() : nullptr;
}

void HwEstimatorBase::resync_if_dirty(cfsm::CfsmId task,
                                      const cfsm::CfsmState& state) {
  Unit& u = unit(task);
  if (!u.registers_dirty) return;
  hwsyn::sync_hw_vars(*u.sim, u.image(), state);
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
  BatchEntry& e = unit(task).batch.next_slot();
  e.time = time;
  e.inputs = inputs;
  e.path = path;
  e.pre = pre_state;
}

void HwEstimatorBase::separate_reset(cfsm::CfsmId task) {
  unit(task).sim->reset();
}

Joules HwEstimatorBase::separate_step(cfsm::CfsmId task,
                                      const cfsm::ReactionInputs& inputs) {
  // The Section 2 baseline replays the captured trace through the gate
  // simulator for every hardware unit, whatever its co-estimation kind.
  return gate_step(unit(task), inputs, &gate_cycles_);
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
