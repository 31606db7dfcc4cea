#include "core/coestimator.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "core/estimators/registry.hpp"
#include "core/estimators/sw_iss_estimator.hpp"
#include "swsyn/codegen.hpp"
#include "telemetry/trace.hpp"
#include "util/shared_builds.hpp"
#include "util/thread_pool.hpp"

namespace socpower::core {

namespace {

constexpr sim::SimTime kInfTime = std::numeric_limits<sim::SimTime>::max();
/// wait_of_job_ entry of a JobId that gates no BusWait.
constexpr std::uint32_t kNoWait = std::numeric_limits<std::uint32_t>::max();

/// Supply current (mA) the CPU draws while blocked on its shared-memory
/// transfers (low-power wait state; lower than a pipeline stall).
constexpr double kBusWaitCurrentMa = 70.0;

/// The macro-op library characterized for `config`, built once per process
/// for each value of what instruction_power_model() reads; the caller gets
/// its own copy, which set_macromodel() may replace.
MacroModelLibrary characterized_macromodel(
    const CoEstimatorConfig& config) {
  static util::SharedBuilds<MacroModelLibrary> libraries("macromodel");
  util::KeyBytes key;
  key.pod(config.data_nj_per_toggle);
  key.pod(config.electrical);
  return *libraries.get(key.bytes, [&] {
    return std::make_shared<const MacroModelLibrary>(
        MacroModelLibrary::characterize(instruction_power_model(config)));
  });
}

/// Create a backend by registry name and downcast it to its role interface.
/// Aborts (in every build type) when the name resolves to a backend that
/// does not implement the role — a config error no run can recover from.
template <typename Role>
std::unique_ptr<ComponentEstimator> create_role_backend(
    const std::string& name, const char* role, Role** out) {
  std::unique_ptr<ComponentEstimator> backend =
      estimator_registry().create(name);
  if (!backend) {
    std::fprintf(stderr,
                 "CoEstimator: estimators.%s backend \"%s\" is not "
                 "registered (known: %s)\n",
                 role, name.c_str(),
                 estimator_registry().joined_names().c_str());
    std::abort();
  }
  *out = dynamic_cast<Role*>(backend.get());
  if (*out == nullptr) {
    std::fprintf(stderr,
                 "CoEstimator: estimators.%s backend \"%s\" does not "
                 "implement the %s role interface\n",
                 role, name.c_str(), role);
    std::abort();
  }
  return backend;
}

}  // namespace

CoEstimator::CoEstimator(const cfsm::Network* network, CoEstimatorConfig config)
    : net_(network), config_(std::move(config)),
      rtos_({}, config_.electrical),
      ecache_(config_.energy_cache) {
  impl_is_sw_.resize(net_->cfsm_count());
  hw_kind_.assign(net_->cfsm_count(), HwEstimatorKind::kGateLevel);
  core_of_.assign(net_->cfsm_count(), 0);
}

CoEstimator::~CoEstimator() = default;

void CoEstimator::map_sw(cfsm::CfsmId task, int rtos_priority) {
  map_sw(task, 0, rtos_priority);
}

void CoEstimator::map_sw(cfsm::CfsmId task, unsigned core, int rtos_priority) {
  assert(!prepared_);
  if (core >= config_.cores) {
    std::fprintf(stderr,
                 "CoEstimator: map_sw: core %u is out of range for a %u-core "
                 "configuration (config.cores)\n",
                 core, config_.cores);
    std::abort();
  }
  impl_is_sw_.at(static_cast<std::size_t>(task)) = true;
  core_of_.at(static_cast<std::size_t>(task)) = core;
  rtos_.set_priority(task, rtos_priority);
}

void CoEstimator::map_hw(cfsm::CfsmId task, HwEstimatorKind kind) {
  assert(!prepared_);
  impl_is_sw_.at(static_cast<std::size_t>(task)) = false;
  hw_kind_.at(static_cast<std::size_t>(task)) = kind;
}

bool CoEstimator::is_sw(cfsm::CfsmId task) const {
  const auto& m = impl_is_sw_.at(static_cast<std::size_t>(task));
  assert(m.has_value() && "process not mapped to HW or SW");
  return *m;
}

void CoEstimator::prepare() {
  assert(!prepared_);
  if (const std::string error = net_->validate(); !error.empty()) {
    std::fprintf(stderr, "CoEstimator: invalid CFSM network: %s\n",
                 error.c_str());
    std::abort();
  }

  const std::vector<std::string> errors = config_.validate();
  if (!errors.empty()) {
    for (const std::string& e : errors)
      std::fprintf(stderr, "CoEstimator: invalid config: %s\n", e.c_str());
    std::abort();
  }

  // Partition the processes by implementation, in ascending id order (the
  // order everything downstream — image layout, flush merging — relies on).
  // Software partitions per core: each core that runs software gets its own
  // SwBackend instance (its own ISS + images). Hardware partitions per
  // HwEstimatorKind.
  std::vector<std::vector<cfsm::CfsmId>> sw_by_core(config_.cores);
  std::vector<cfsm::CfsmId> hw_by_kind[2];
  for (std::size_t c = 0; c < net_->cfsm_count(); ++c) {
    const auto task = static_cast<cfsm::CfsmId>(c);
    if (!impl_is_sw_[c]) {
      std::fprintf(stderr,
                   "CoEstimator: process \"%s\" is mapped to neither "
                   "software nor hardware; call map_sw() or map_hw() for it "
                   "before prepare()\n",
                   net_->cfsm(task).name().c_str());
      std::abort();
    }
    if (*impl_is_sw_[c])
      sw_by_core[core_of_[c]].push_back(task);
    else
      hw_by_kind[static_cast<std::size_t>(hw_kind_[c])].push_back(task);
  }

  macromodel_ = characterized_macromodel(config_);
  path_tables_.resize(net_->cfsm_count());

  // Instantiate the selected backends (only the roles with work) and let
  // them build their lower-level simulators.
  hw_backend_for_.assign(net_->cfsm_count(), nullptr);
  auto add_backend = [this](std::unique_ptr<ComponentEstimator> b,
                            std::vector<cfsm::CfsmId> components) {
    EstimatorContext ctx;
    ctx.network = net_;
    ctx.config = &config_;
    ctx.components = std::move(components);
    ctx.path_tables = &path_tables_;
    b->prepare(ctx);
    owned_backends_.push_back(std::move(b));
  };
  sw_for_core_.assign(config_.cores, nullptr);
  for (unsigned core = 0; core < config_.cores; ++core) {
    if (sw_by_core[core].empty()) continue;
    SwBackend* sw = nullptr;
    add_backend(create_role_backend(config_.estimators.sw, "sw", &sw),
                sw_by_core[core]);
    sw_for_core_[core] = sw;
  }
  // One HwBackend per HwEstimatorKind with mapped processes, gate level
  // first. hw_remote swaps in the out-of-process proxies by name suffix, so
  // any registered hardware backend gains a remote deployment for free.
  const std::string hw_suffix = config_.hw_remote ? ".remote" : "";
  const struct {
    HwEstimatorKind kind;
    const char* role;
    const std::string& name;
  } hw_roles[] = {
      {HwEstimatorKind::kGateLevel, "hw_gate", config_.estimators.hw_gate},
      {HwEstimatorKind::kRtl, "hw_rtl", config_.estimators.hw_rtl}};
  for (const auto& r : hw_roles) {
    auto& ids = hw_by_kind[static_cast<std::size_t>(r.kind)];
    if (ids.empty()) continue;
    HwBackend* hw = nullptr;
    auto backend = create_role_backend(r.name + hw_suffix, r.role, &hw);
    for (const cfsm::CfsmId t : ids)
      hw_backend_for_[static_cast<std::size_t>(t)] = hw;
    add_backend(std::move(backend), std::move(ids));
    hw_backends_.push_back(hw);
  }
  add_backend(create_role_backend(config_.estimators.cache, "cache", &cache_),
              {});
  // The interconnect kind selects between the arbitrated-bus and routed-NoC
  // backend names; both satisfy the BusBackend role.
  const std::string& bus_name = config_.interconnect == InterconnectKind::kNoc
                                    ? config_.estimators.noc
                                    : config_.estimators.bus;
  add_backend(create_role_backend(bus_name, "bus", &bus_), {});

  // Power-trace components: one per process, plus bus and cache.
  trace_ = sim::PowerTrace(config_.electrical);
  process_component_.clear();
  for (std::size_t c = 0; c < net_->cfsm_count(); ++c)
    process_component_.push_back(trace_.add_component(net_->cfsm(
        static_cast<cfsm::CfsmId>(c)).name()));
  bus_component_ = trace_.add_component("bus");
  cache_component_ = trace_.add_component("icache");

  receivers_by_event_.clear();
  for (std::size_t e = 0; e < net_->event_count(); ++e)
    receivers_by_event_.push_back(
        net_->receivers(static_cast<cfsm::EventId>(e)));
  mm_memo_.assign(net_->cfsm_count(), {});
  addr_memo_.assign(net_->cfsm_count(), {});
  trig_inputs_.assign(net_->cfsm_count(), {});
  cores_.resize(config_.cores);

  structural_baseline_ = config_;
  prepared_ = true;
}

void CoEstimator::check_structural_config() const {
  if (const char* field = structural_mismatch(config_, structural_baseline_)) {
    std::fprintf(stderr,
                 "CoEstimator: config field \"%s\" is structural (baked into "
                 "the simulators at prepare()) and was mutated afterwards; "
                 "create a new estimator instead\n",
                 field);
    std::abort();
  }
}

void CoEstimator::reset_runtime_state() {
  trace_.reset();
  trace_.set_keep_samples(config_.keep_power_samples);
  ecache_ = EnergyCache(config_.energy_cache);
  sampler_.assign(net_->cfsm_count(),
                  DynamicCompactionStream(config_.sampling));
  state_.clear();
  for (std::size_t c = 0; c < net_->cfsm_count(); ++c)
    state_.push_back(net_->cfsm(static_cast<cfsm::CfsmId>(c)).make_state());
  latched_.assign(net_->event_count(), std::nullopt);
  queue_.clear();
  // The scratch below keeps its storage across runs; only its contents go.
  for (CoreState& cs : cores_) {
    cs.ready.clear();
    cs.bus.active = false;
    cs.bus.requests.clear();
    cs.bus.emissions.clear();
    cs.blocked = false;
    cs.free_at = 0;
  }
  wait_of_job_.clear();
  free_waits_.clear();
  for (std::size_t i = bus_waits_.size(); i-- > 0;)
    free_waits_.push_back(static_cast<std::uint32_t>(i));
  flush_gate_cycles_ = 0;
  for (const auto& b : owned_backends_) b->begin_run();
}

void CoEstimator::merge_inputs(cfsm::CfsmId task,
                               const cfsm::ReactionInputs& trigger,
                               cfsm::ReactionInputs& merged) const {
  merged.clear();
  // Sampled inputs first: the latest latched value of each sampled event
  // (POLIS valued events persist); trigger events override.
  for (const cfsm::EventId e : net_->cfsm(task).sampled_inputs()) {
    const auto& v = latched_[static_cast<std::size_t>(e)];
    if (v) merged.set(e, *v);
  }
  for (const auto& [e, v] : trigger.all()) merged.set(e, v);
}

void CoEstimator::latch_occurrence(const sim::EventOccurrence& occ) {
  latched_[static_cast<std::size_t>(occ.event)] = occ.value;
}

sim::SimTime CoEstimator::pop_and_group_instant() {
  queue_.pop_instant(occs_);
  for (const auto& o : occs_) {
    latch_occurrence(o);
    for (const auto& hook : environment_hooks_) hook(o, queue_);
  }
  for (const cfsm::CfsmId t : triggered_)
    trig_inputs_[static_cast<std::size_t>(t)].clear();
  triggered_.clear();
  for (const auto& o : occs_) {
    for (const cfsm::CfsmId r :
         receivers_by_event_[static_cast<std::size_t>(o.event)]) {
      auto& in = trig_inputs_[static_cast<std::size_t>(r)];
      if (in.empty()) triggered_.push_back(r);
      in.set(o.event, o.value);
    }
  }
  std::sort(triggered_.begin(), triggered_.end());
  return occs_.front().time;
}

std::uint32_t CoEstimator::open_wait() {
  std::uint32_t slot;
  if (free_waits_.empty()) {
    slot = static_cast<std::uint32_t>(bus_waits_.size());
    bus_waits_.emplace_back();
  } else {
    slot = free_waits_.back();
    free_waits_.pop_back();
  }
  BusWait& w = bus_waits_[slot];
  w.task = cfsm::kNoCfsm;
  w.is_cpu = false;
  w.core = 0;
  w.emissions.clear();
  w.remaining = 0;
  w.earliest_done = 0;
  w.last_end = 0;
  w.cpu_issue = 0;
  return slot;
}

void CoEstimator::track_job(bus::Interconnect::JobId id, std::uint32_t wait) {
  if (id >= wait_of_job_.size()) wait_of_job_.resize(id + 1, kNoWait);
  assert(wait_of_job_[id] == kNoWait && "interconnect reused a live JobId");
  wait_of_job_[id] = wait;
}

TransitionCost CoEstimator::measured_or_accelerated(
    cfsm::CfsmId task, cfsm::PathId path,
    const std::function<TransitionCost()>& simulate) {
  switch (config_.accel) {
    case Acceleration::kNone:
    case Acceleration::kMacroModel:
      // Software under the macro-model returns before reaching here, and
      // hardware parts have no macro-model: simulate them.
      return simulate();
    case Acceleration::kCaching: {
      if (const auto c = ecache_.lookup(task, path)) {
        sync_overhead(config_.cache_hit_spin);
        return {c->cycles, c->energy, false};
      }
      TransitionCost cost = simulate();
      ecache_.record(task, path, static_cast<Cycles>(cost.cycles),
                     cost.energy);
      return cost;
    }
    case Acceleration::kSampling: {
      const bool do_sim = sampler_[static_cast<std::size_t>(task)].feed(
          static_cast<std::uint32_t>(path));
      if (!do_sim) {
        if (const auto m = ecache_.mean(task, path))
          return {m->cycles, m->energy, false};
        // Unseen path: must simulate to bootstrap the extrapolation.
      }
      TransitionCost cost = simulate();
      ecache_.record(task, path, static_cast<Cycles>(cost.cycles),
                     cost.energy);
      return cost;
    }
  }
  return simulate();
}

TransitionCost CoEstimator::sw_transition_cost(
    cfsm::CfsmId task, const cfsm::ReactionInputs& inputs,
    const cfsm::CfsmState& pre_state, const cfsm::Reaction& reaction,
    cfsm::PathId path) {
  if (config_.accel == Acceleration::kMacroModel) {
    // The macro-model annotates the behavioral model: the first execution of
    // a path prices its macro-op stream from the parameter library; later
    // executions are O(1) lookups. The ISS is never invoked.
    static telemetry::Counter& skipped =
        telemetry::registry().counter("macromodel.skipped_iss_calls");
    static telemetry::Counter& annotations =
        telemetry::registry().counter("macromodel.path_annotations");
    skipped.add();
    auto& memo = mm_memo_[static_cast<std::size_t>(task)];
    if (static_cast<std::size_t>(path) >= memo.size())
      memo.resize(static_cast<std::size_t>(path) + 1);
    auto& slot = memo[static_cast<std::size_t>(path)];
    if (!slot) {
      const auto stream =
          swsyn::macro_stream_for_trace(net_->cfsm(task), reaction.trace);
      slot = macromodel_.estimate(stream);
      annotations.add();
    }
    return {slot->cycles, slot->energy, false};
  }

  TransitionRequest req;
  req.task = task;
  req.inputs = &inputs;
  req.pre_state = &pre_state;
  req.reaction = &reaction;
  req.post_state = &state_[static_cast<std::size_t>(task)];
  SwBackend* sw = sw_backend_of(task);
  auto simulate = [&]() -> TransitionCost { return sw->cost(req); };
  return measured_or_accelerated(task, path, simulate);
}

TransitionCost CoEstimator::hw_transition_cost(
    cfsm::CfsmId task, const cfsm::ReactionInputs& inputs,
    const cfsm::CfsmState& pre_state, const cfsm::Reaction& reaction,
    cfsm::PathId path) {
  HwBackend* hw = hw_backend_for_[static_cast<std::size_t>(task)];
  // The master resynchronized the register state (if dirty) before running
  // the behavioral reaction, so the netlist sees the correct pre-state.
  TransitionRequest req;
  req.task = task;
  req.inputs = &inputs;
  req.pre_state = &pre_state;
  req.reaction = &reaction;
  req.post_state = &state_[static_cast<std::size_t>(task)];
  auto simulate = [&]() -> TransitionCost { return hw->cost(req); };
  // Table 1 accelerates the ISS side only (zero accuracy loss); HW-side
  // caching/sampling is the opt-in ablation.
  TransitionCost cost = config_.accelerate_hw
                            ? measured_or_accelerated(task, path, simulate)
                            : simulate();
  hw->mark_skipped(task, !cost.simulated);
  return cost;
}

RunResults CoEstimator::run(const sim::Stimulus& stimulus) {
  assert(prepared_);
  check_structural_config();
  telemetry::registry().counter("coest.runs").add();
  SOCPOWER_TRACE_SPAN("coest.run");
  const auto wall0 = std::chrono::steady_clock::now();
  reset_runtime_state();
  stimulus.load_into(queue_);

  RunResults res;
  res.process_energy.assign(net_->cfsm_count(), 0.0);

  auto charge_process = [&](cfsm::CfsmId task, sim::SimTime t, Joules e) {
    trace_.record(process_component_[static_cast<std::size_t>(task)], t, e);
    res.process_energy[static_cast<std::size_t>(task)] += e;
    if (is_sw(task))
      res.cpu_energy += e;
    else
      res.hw_energy += e;
  };

  sim::SimTime now = 0;
  while (true) {
    if (res.reactions >= config_.max_reactions) {
      res.truncated = true;
      break;
    }
    const sim::SimTime t_queue = queue_.empty() ? kInfTime : queue_.next_time();
    const sim::SimTime t_sched =
        bus_->has_work() ? bus_->next_boundary() : kInfTime;
    // Per-core minima; ties resolve to the lowest core id (strict <), which
    // reduces to the original single-CPU schedule when cores == 1.
    sim::SimTime t_bus = kInfTime;
    unsigned bus_core = 0;
    sim::SimTime t_cpu = kInfTime;
    unsigned cpu_core = 0;
    for (unsigned c = 0; c < cores_.size(); ++c) {
      const CoreState& cs = cores_[c];
      if (cs.bus.active && cs.bus.issue_at < t_bus) {
        t_bus = cs.bus.issue_at;
        bus_core = c;
      }
      if (cs.ready.empty() || cs.bus.active || cs.blocked) continue;
      const sim::SimTime t = std::max(cs.free_at, cs.ready.earliest_ready());
      if (t < t_cpu) {
        t_cpu = t;
        cpu_core = c;
      }
    }
    if (t_queue == kInfTime && t_cpu == kInfTime && t_bus == kInfTime &&
        t_sched == kInfTime)
      break;

    if (t_sched <= t_queue && t_sched <= t_bus && t_sched <= t_cpu) {
      // ---- advance the bus arbiter to its next grant boundary --------------
      now = std::max(now, t_sched);
      for (const auto& c : bus_->advance(t_sched)) {
        assert(c.id < wait_of_job_.size() && wait_of_job_[c.id] != kNoWait);
        const std::uint32_t slot = wait_of_job_[c.id];
        BusWait& w = bus_waits_[slot];
        trace_.record(bus_component_, c.result.end, c.result.energy);
        res.bus_energy += c.result.energy;
        w.last_end = std::max(w.last_end, c.result.end);
        if (--w.remaining != 0) continue;
        const sim::SimTime done = std::max(w.last_end, w.earliest_done);
        if (w.is_cpu) {
          // Programmed I/O: the CPU stalls until its transfer completes,
          // drawing a low-power wait current — this is how arbitration
          // priorities and DMA sizing feed back into software energy even
          // when the code is unchanged (the paper's Figure 7 effect).
          if (done > w.cpu_issue) {
            const Joules wait_e = kBusWaitCurrentMa * 1e-3 *
                                  config_.electrical.vdd_volts *
                                  static_cast<double>(done - w.cpu_issue) /
                                  config_.electrical.clock_hz;
            charge_process(w.task, w.cpu_issue, wait_e);
          }
          CoreState& cs = cores_[w.core];
          cs.blocked = false;
          cs.free_at = done;
        }
        for (const auto& em : w.emissions)
          queue_.post(done, em.event, em.value, w.task);
        free_waits_.push_back(slot);
      }
      continue;
    }

    if (t_bus < t_queue && t_bus <= t_cpu) {
      // ---- issue a blocked CPU's shared-memory traffic ----------------------
      CoreState& cs = cores_[bus_core];
      now = cs.bus.issue_at;
      const std::uint32_t slot = open_wait();
      BusWait& w = bus_waits_[slot];
      w.task = cs.bus.task;
      w.is_cpu = true;
      w.core = bus_core;
      w.emissions.swap(cs.bus.emissions);
      w.remaining = cs.bus.requests.size();
      w.earliest_done = now;
      w.cpu_issue = now;
      for (auto& rq : cs.bus.requests)
        track_job(bus_->submit(now, std::move(rq)), slot);
      cs.blocked = true;
      cs.bus.active = false;
      cs.bus.requests.clear();
      cs.bus.emissions.clear();
      continue;
    }

    if (t_queue <= t_cpu) {
      // ---- process one event instant --------------------------------------
      now = pop_and_group_instant();
      const cfsm::ReactionInputs& inputs = inputs_;
      const cfsm::CfsmState& pre_state = pre_state_;
      const cfsm::Reaction& reaction = reaction_;
      for (const cfsm::CfsmId task : triggered_) {
        const auto& trig = trig_inputs_[static_cast<std::size_t>(task)];
        if (is_sw(task)) {
          cores_[core_of_[static_cast<std::size_t>(task)]]
              .ready.push(now, task, rtos_.priority(task))
              .payload = trig;
          continue;
        }
        // Hardware reaction at this instant.
        ++res.reactions;
        ++res.hw_reactions;
        merge_inputs(task, trig, inputs_);
        auto& st = state_[static_cast<std::size_t>(task)];
        pre_state_ = st;
        HwBackend* hw = hw_backend_for_[static_cast<std::size_t>(task)];
        if (hw_online()) hw->resync_if_dirty(task, pre_state);
        net_->cfsm(task).react(inputs, st, reaction_);
        if (!hw_online()) {
          // Batch mode: buffer the vector; energy is computed in one pass
          // after the co-simulation (HW latency is constant, so nothing
          // downstream needs it now).
          cfsm::PathId path = cfsm::kNoPath;  // kNoPath == reset transition
          if (!reaction.trace.empty())
            path = path_tables_[static_cast<std::size_t>(task)].intern(
                reaction.trace);
          hw->enqueue(task, now, inputs, path, pre_state);
          if (reaction.trace.empty()) continue;
        } else {
          if (reaction.trace.empty()) {
            // Reset transition: re-initialize the netlist state.
            hw->reset_unit(task);
            continue;
          }
          const cfsm::PathId path =
              path_tables_[static_cast<std::size_t>(task)].intern(
                  reaction.trace);
          static telemetry::Counter& hw_transitions =
              telemetry::registry().counter("coest.transitions.hw");
          static telemetry::Counter& accel_served =
              telemetry::registry().counter("coest.accel_served");
          hw_transitions.add();
          TransitionCost cost;
          {
            SOCPOWER_TRACE_SPAN("coest.hw_transition", now,
                                static_cast<std::uint64_t>(task));
            cost =
                hw_transition_cost(task, inputs, pre_state, reaction, path);
          }
          if (!cost.simulated) {
            ++res.cache_hits_served;
            accel_served.add();
          }
          charge_process(task, now, cost.energy);
          if (transition_hook_)
            transition_hook_({task, path, now, cost.cycles, cost.energy,
                              cost.simulated});
        }

        // Traffic goes to the interconnect; the reaction's emissions wait
        // for its last transfer when it has any.
        std::vector<bus::BusRequest>& reqs = traffic_;
        reqs.clear();
        if (traffic_hook_) traffic_hook_(task, reaction, pre_state, reqs);
        sim::SimTime latency = now + kHwReactionCycles;
        if (config_.coherence.enabled && !reqs.empty()) {
          // Hardware masters are uncached agents: their accesses invalidate
          // (writes) or flush (reads) matching dirty lines in the cores'
          // private L1s, and the resulting control messages ride the
          // interconnect alongside the data transfer.
          latency += coherence_traffic(-1, now, reqs, res);
        }
        if (reqs.empty()) {
          for (const auto& em : reaction.emissions)
            queue_.post(latency, em.event, em.value, task);
        } else {
          const std::uint32_t slot = open_wait();
          BusWait& w = bus_waits_[slot];
          w.task = task;
          w.emissions.assign(reaction.emissions.begin(),
                             reaction.emissions.end());
          w.remaining = reqs.size();
          w.earliest_done = latency;
          for (auto& rq : reqs)
            track_job(bus_->submit(now, std::move(rq)), slot);
        }
      }
      continue;
    }

    // ---- dispatch one software transition on the chosen core ----------------
    now = t_cpu;
    CoreState& cpu = cores_[cpu_core];
    // The RTOS pick: the highest-priority ready entry, FIFO within a
    // priority (ReadyQueue). Its payload is read before the next push.
    const auto* pending = cpu.ready.pop(now);
    assert(pending != nullptr);

    ++res.reactions;
    ++res.sw_reactions;
    const cfsm::CfsmId task = pending->task;
    merge_inputs(task, pending->payload, inputs_);
    const cfsm::ReactionInputs& inputs = inputs_;
    auto& st = state_[static_cast<std::size_t>(task)];
    pre_state_ = st;
    const cfsm::CfsmState& pre_state = pre_state_;
    net_->cfsm(task).react(inputs, st, reaction_);
    const cfsm::Reaction& reaction = reaction_;

    // RTOS dispatch overhead.
    double cycles = static_cast<double>(rtos_.dispatch_cycles());
    Joules energy = rtos_.dispatch_energy();

    if (!reaction.trace.empty()) {
      const cfsm::PathId path =
          path_tables_[static_cast<std::size_t>(task)].intern(reaction.trace);
      static telemetry::Counter& sw_transitions =
          telemetry::registry().counter("coest.transitions.sw");
      static telemetry::Counter& accel_served =
          telemetry::registry().counter("coest.accel_served");
      sw_transitions.add();
      TransitionCost cost;
      {
        SOCPOWER_TRACE_SPAN("coest.sw_transition", now,
                            static_cast<std::uint64_t>(task));
        cost = sw_transition_cost(task, inputs, pre_state, reaction, path);
      }
      if (!cost.simulated) {
        ++res.cache_hits_served;
        accel_served.add();
      }
      cycles += cost.cycles;
      energy += cost.energy;
      if (transition_hook_)
        transition_hook_({task, path, now, cost.cycles, cost.energy,
                          cost.simulated});

      // Instruction-cache references come from the behavioral model's path
      // (Section 3), so they are issued whether or not the ISS ran. Each
      // core references its own private instruction cache.
      if (config_.enable_icache) {
        // A path's address trace is fixed once the images are built, so it
        // is computed on the path's first execution and replayed after.
        auto& memo = addr_memo_[static_cast<std::size_t>(task)];
        if (static_cast<std::size_t>(path) >= memo.size())
          memo.resize(static_cast<std::size_t>(path) + 1);
        auto& addrs = memo[static_cast<std::size_t>(path)];
        if (addrs.empty())
          addrs = swsyn::address_trace(*sw_for_core_[cpu_core]->image(task),
                                       reaction.trace);
        const cache::AccessStats cs = cache_->access_core(cpu_core, addrs);
        cycles += static_cast<double>(cs.penalty_cycles);
        trace_.record(cache_component_, now, cs.energy);
        res.cache_energy += cs.energy;
      }
    }

    charge_process(task, now, energy);
    sim::SimTime end =
        now + static_cast<sim::SimTime>(std::llround(std::ceil(cycles)));
    if (end == now) end = now + 1;

    std::vector<bus::BusRequest>& reqs = traffic_;
    reqs.clear();
    if (traffic_hook_ && !reaction.trace.empty())
      traffic_hook_(task, reaction, pre_state, reqs);
    if (config_.coherence.enabled && !reqs.empty()) {
      // Data side: the core's shared-memory traffic runs through its
      // MSI-coherent private L1; misses/upgrades stall the core and the
      // coherence control messages join the core's bus phase.
      end += coherence_traffic(static_cast<int>(cpu_core), now, reqs, res);
    }
    if (reqs.empty()) {
      cpu.free_at = end;
      for (const auto& em : reaction.emissions)
        queue_.post(end, em.event, em.value, task);
    } else {
      // Defer the bus phase so it arbitrates in simulated-time order with
      // the other masters' traffic; the core blocks until completion.
      cpu.bus.active = true;
      cpu.bus.issue_at = end;
      cpu.bus.task = task;
      cpu.bus.requests.swap(reqs);  // both buffers stay alive for reuse
      cpu.bus.emissions.assign(reaction.emissions.begin(),
                               reaction.emissions.end());
      cpu.free_at = end;  // refined to the transfer end when it is served
    }
  }

  if (!hw_online()) flush_hw_batches(res);

  res.end_time = now;
  for (const CoreState& cs : cores_)
    res.end_time = std::max(res.end_time, cs.free_at);
  res.total_energy =
      res.cpu_energy + res.hw_energy + res.bus_energy + res.cache_energy;
  for (const auto& b : owned_backends_) b->stats(res);
  res.gate_sim_cycles += flush_gate_cycles_;
  res.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();
  return res;
}

void CoEstimator::flush_hw_batches(RunResults& res) {
  // Each backend unit owns its gate simulator and batch vector, so the
  // per-unit replay is embarrassingly parallel. The shared pieces — gate
  // cycles, the PowerTrace, RunResults accumulation and the transition hook —
  // are accumulated per worker in the FlushResult and merged in component
  // order afterwards, so the reported energies (floating-point addition
  // order included) are identical for any thread count.
  std::vector<ComponentEstimator::FlushJob> jobs;
  for (const auto& b : owned_backends_) b->flush(jobs);
  if (jobs.empty()) return;
  // Merge order is ascending component id, exactly the order a single
  // monolithic estimator would flush in.
  std::sort(jobs.begin(), jobs.end(),
            [](const auto& a, const auto& b) {
              return a.component < b.component;
            });

  SOCPOWER_TRACE_SPAN("coest.hw_flush");
  std::vector<ComponentEstimator::FlushResult> flushed(jobs.size());
  const auto threads = static_cast<unsigned>(std::min<std::size_t>(
      resolve_thread_count(config_.hw_flush_threads), jobs.size()));
  if (threads > 1) {
    ThreadPool pool(threads);
    pool.parallel_for(jobs.size(),
                      [&](std::size_t i) { flushed[i] = jobs[i].work(); });
  } else {
    for (std::size_t i = 0; i < jobs.size(); ++i) flushed[i] = jobs[i].work();
  }

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const cfsm::CfsmId task = jobs[i].component;
    const auto c = static_cast<std::size_t>(task);
    for (const ComponentEstimator::FlushEntry& e : flushed[i].entries) {
      trace_.record(process_component_[c], e.time, e.energy);
      res.process_energy[c] += e.energy;
      res.hw_energy += e.energy;
      if (transition_hook_)
        transition_hook_({task, e.path, e.time,
                          static_cast<double>(kHwReactionCycles),
                          e.energy, true});
    }
    flush_gate_cycles_ += flushed[i].gate_cycles;
  }
}

sim::SimTime CoEstimator::coherence_traffic(int core, sim::SimTime now,
                                            std::vector<bus::BusRequest>& reqs,
                                            RunResults& res) {
  Cycles penalty = 0;
  Joules energy = 0.0;
  // Invalidation/writeback messages ride the interconnect with the data
  // transfer they were caused by: they are appended after the data
  // requests, in request order.
  const std::size_t data_requests = reqs.size();
  for (std::size_t i = 0; i < data_requests; ++i) {
    const bus::BusRequest& rq = reqs[i];
    const auto bytes =
        static_cast<std::uint32_t>(rq.data.empty() ? 4u : rq.data.size());
    cache::CoherentAccessResult co =
        cache_->data_access(core, rq.write, rq.addr, bytes);
    penalty += co.penalty_cycles;
    energy += co.energy;
    reqs.insert(reqs.end(), std::make_move_iterator(co.traffic.begin()),
                std::make_move_iterator(co.traffic.end()));
  }
  if (energy > 0.0) {
    trace_.record(cache_component_, now, energy);
    res.cache_energy += energy;
  }
  return static_cast<sim::SimTime>(penalty);
}

RunResults CoEstimator::run_separate(const sim::Stimulus& stimulus) {
  assert(prepared_);
  check_structural_config();
  const auto wall0 = std::chrono::steady_clock::now();

  // ---- phase 1: timing-independent behavioral simulation, trace capture ----
  reset_runtime_state();
  stimulus.load_into(queue_);
  separate_traces_.resize(net_->cfsm_count());
  for (auto& trace : separate_traces_) trace.clear();
  std::uint64_t reactions = 0;
  bool truncated = false;
  while (!queue_.empty()) {
    if (reactions >= config_.max_reactions) {
      truncated = true;
      break;
    }
    const sim::SimTime t = pop_and_group_instant();
    for (const cfsm::CfsmId task : triggered_) {
      ++reactions;
      cfsm::ReactionInputs& inputs =
          separate_traces_[static_cast<std::size_t>(task)].next_slot();
      merge_inputs(task, trig_inputs_[static_cast<std::size_t>(task)],
                   inputs);
      auto& st = state_[static_cast<std::size_t>(task)];
      net_->cfsm(task).react(inputs, st, reaction_);
      // Nominal unit delay: every transition takes one cycle.
      for (const auto& em : reaction_.emissions)
        queue_.post(t + 1, em.event, em.value, task);
    }
  }

  // ---- phase 2: independent per-component estimation on the traces ---------
  RunResults res;
  res.truncated = truncated;
  res.process_energy.assign(net_->cfsm_count(), 0.0);
  res.reactions = reactions;
  for (std::size_t c = 0; c < net_->cfsm_count(); ++c) {
    const auto task = static_cast<cfsm::CfsmId>(c);
    cfsm::CfsmState st = net_->cfsm(task).make_state();
    Joules e = 0.0;
    if (is_sw(task)) {
      for (const auto& inputs : separate_traces_[c]) {
        pre_state_ = st;
        net_->cfsm(task).react(inputs, st, reaction_);
        if (reaction_.trace.empty()) continue;
        e += sw_backend_of(task)->replay(task, inputs, pre_state_) +
             rtos_.dispatch_energy();
        ++res.sw_reactions;
      }
      res.cpu_energy += e;
    } else {
      HwBackend* hw = hw_backend_for_[c];
      hw->separate_reset(task);
      for (const auto& inputs : separate_traces_[c]) {
        net_->cfsm(task).react(inputs, st, reaction_);
        if (reaction_.trace.empty()) {
          hw->separate_reset(task);
          continue;
        }
        e += hw->separate_step(task, inputs);
        ++res.hw_reactions;
      }
      res.hw_energy += e;
    }
    res.process_energy[c] = e;
  }
  res.total_energy = res.cpu_energy + res.hw_energy;
  for (SwBackend* sw : sw_for_core_)
    if (sw) sw->stats(res);
  for (HwBackend* hw : hw_backends_) hw->stats(res);
  res.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();
  return res;
}

const MacroModelLibrary& CoEstimator::macromodel() const {
  assert(prepared_);
  return macromodel_;
}

void CoEstimator::set_macromodel(MacroModelLibrary library) {
  macromodel_ = std::move(library);
  mm_memo_.assign(net_->cfsm_count(), {});
}

cfsm::PathTable& CoEstimator::path_table(cfsm::CfsmId task) {
  return path_tables_.at(static_cast<std::size_t>(task));
}

SwBackend* CoEstimator::sw_backend_of(cfsm::CfsmId task) const {
  if (sw_for_core_.empty()) return nullptr;
  if (SwBackend* b = sw_for_core_[core_of_.at(static_cast<std::size_t>(task))])
    return b;
  // Hardware tasks sit on core 0 by default; fall back to any software
  // backend so image lookups keep their "nullptr when unmapped" semantics.
  for (SwBackend* b : sw_for_core_)
    if (b) return b;
  return nullptr;
}

const swsyn::SwImage* CoEstimator::sw_image(cfsm::CfsmId task) const {
  SwBackend* sw = sw_backend_of(task);
  return sw ? sw->image(task) : nullptr;
}

const hwsyn::HwImage* CoEstimator::hw_image(cfsm::CfsmId task) const {
  const HwBackend* hw = hw_backend_for_.at(static_cast<std::size_t>(task));
  return hw ? hw->image(task) : nullptr;
}

std::vector<const ComponentEstimator*> CoEstimator::backends() const {
  std::vector<const ComponentEstimator*> out;
  out.reserve(owned_backends_.size());
  for (const auto& b : owned_backends_) out.push_back(b.get());
  return out;
}

CoEstimator::WarmSnapshot CoEstimator::export_warm_state() const {
  WarmSnapshot snap;
  snap.backends.reserve(owned_backends_.size());
  for (const auto& b : owned_backends_)
    snap.backends.push_back(b->export_warm_state());
  snap.ecache = ecache_.export_entries();
  snap.ecache_hits = ecache_.hits();
  snap.ecache_simulations = ecache_.simulations();
  return snap;
}

bool CoEstimator::import_warm_state(const WarmSnapshot& snap) {
  if (!prepared_ || snap.backends.size() != owned_backends_.size())
    return false;
  for (std::size_t i = 0; i < owned_backends_.size(); ++i)
    owned_backends_[i]->import_warm_state(snap.backends[i]);
  ecache_.import_entries(snap.ecache, snap.ecache_hits,
                         snap.ecache_simulations);
  return true;
}

ComponentEstimator::WarmCacheCounters CoEstimator::warm_cache_counters()
    const {
  ComponentEstimator::WarmCacheCounters sum;
  for (const auto& b : owned_backends_) {
    const ComponentEstimator::WarmCacheCounters c = b->warm_cache_counters();
    sum.hits += c.hits;
    sum.fills += c.fills;
  }
  return sum;
}

}  // namespace socpower::core
