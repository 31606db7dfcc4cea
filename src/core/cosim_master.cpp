#include "core/cosim_master.hpp"

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
#include "util/thread_pool.hpp"

namespace socpower::core {

namespace {

constexpr sim::SimTime kInfTime = std::numeric_limits<sim::SimTime>::max();

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
                 "CoSimMaster: estimators.%s backend \"%s\" is not "
                 "registered (known: %s)\n",
                 role, name.c_str(),
                 estimator_registry().joined_names().c_str());
    std::abort();
  }
  *out = dynamic_cast<Role*>(backend.get());
  if (*out == nullptr) {
    std::fprintf(stderr,
                 "CoSimMaster: estimators.%s backend \"%s\" does not "
                 "implement the %s role interface\n",
                 role, name.c_str(), role);
    std::abort();
  }
  return backend;
}

}  // namespace

CoSimMaster::CoSimMaster(const cfsm::Network* network, CoEstimatorConfig config)
    : net_(network), config_(std::move(config)),
      rtos_(config_.rtos, config_.electrical),
      ecache_(config_.energy_cache) {
  impl_is_sw_.resize(net_->cfsm_count());
  core_of_.assign(net_->cfsm_count(), 0);
}

CoSimMaster::~CoSimMaster() = default;

void CoSimMaster::map_sw(cfsm::CfsmId task, int rtos_priority) {
  map_sw(task, 0, rtos_priority);
}

void CoSimMaster::map_sw(cfsm::CfsmId task, unsigned core, int rtos_priority) {
  assert(!prepared_);
  if (core >= config_.cores) {
    std::fprintf(stderr,
                 "CoSimMaster: map_sw: core %u is out of range for a %u-core "
                 "configuration (config.cores)\n",
                 core, config_.cores);
    std::abort();
  }
  impl_is_sw_.at(static_cast<std::size_t>(task)) = true;
  core_of_.at(static_cast<std::size_t>(task)) = core;
  rtos_.set_priority(task, rtos_priority);
}

void CoSimMaster::map_hw(cfsm::CfsmId task, HwEstimatorKind kind) {
  assert(!prepared_);
  impl_is_sw_.at(static_cast<std::size_t>(task)) = false;
  if (hw_kind_.size() < net_->cfsm_count())
    hw_kind_.assign(net_->cfsm_count(), HwEstimatorKind::kGateLevel);
  hw_kind_[static_cast<std::size_t>(task)] = kind;
}

bool CoSimMaster::is_sw(cfsm::CfsmId task) const {
  const auto& m = impl_is_sw_.at(static_cast<std::size_t>(task));
  assert(m.has_value() && "process not mapped to HW or SW");
  return *m;
}

void CoSimMaster::prepare() {
  assert(!prepared_);
  assert(net_->validate().empty() && "invalid CFSM network");

  const std::vector<std::string> errors = config_.validate();
  if (!errors.empty()) {
    for (const std::string& e : errors)
      std::fprintf(stderr, "CoSimMaster: invalid config: %s\n", e.c_str());
    std::abort();
  }

  // Partition the processes by implementation, in ascending id order (the
  // order everything downstream — image layout, flush merging — relies on).
  // Software additionally partitions per core: each core that runs software
  // gets its own SwBackend instance (its own ISS + images).
  std::vector<std::vector<cfsm::CfsmId>> sw_by_core(config_.cores);
  std::vector<cfsm::CfsmId> gate_ids, rtl_ids;
  for (std::size_t c = 0; c < net_->cfsm_count(); ++c) {
    const auto task = static_cast<cfsm::CfsmId>(c);
    if (is_sw(task)) {
      sw_by_core[core_of_[c]].push_back(task);
    } else {
      const HwEstimatorKind kind = c < hw_kind_.size()
                                       ? hw_kind_[c]
                                       : HwEstimatorKind::kGateLevel;
      (kind == HwEstimatorKind::kRtl ? rtl_ids : gate_ids).push_back(task);
    }
  }

  macromodel_ = MacroModelLibrary::characterize(instruction_power_model(config_),
                                                config_.iss);
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
    sw_backends_.push_back(sw);
  }
  // hw_remote swaps in the out-of-process proxies by name suffix, so any
  // registered hardware backend gains a remote deployment for free.
  const std::string hw_suffix = config_.hw_remote ? ".remote" : "";
  if (!gate_ids.empty()) {
    add_backend(create_role_backend(config_.estimators.hw_gate + hw_suffix,
                                    "hw_gate", &hw_gate_),
                gate_ids);
    for (const cfsm::CfsmId t : gate_ids)
      hw_backend_for_[static_cast<std::size_t>(t)] = hw_gate_;
  }
  if (!rtl_ids.empty()) {
    add_backend(create_role_backend(config_.estimators.hw_rtl + hw_suffix,
                                    "hw_rtl", &hw_rtl_),
                rtl_ids);
    for (const cfsm::CfsmId t : rtl_ids)
      hw_backend_for_[static_cast<std::size_t>(t)] = hw_rtl_;
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

  structural_baseline_ = config_;
  prepared_ = true;
}

void CoSimMaster::check_structural_config() const {
  if (const char* field = structural_mismatch(config_, structural_baseline_)) {
    std::fprintf(stderr,
                 "CoSimMaster: config field \"%s\" is structural (baked into "
                 "the simulators at prepare()) and was mutated afterwards; "
                 "create a new estimator instead\n",
                 field);
    std::abort();
  }
}

void CoSimMaster::reset_runtime_state() {
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
  cores_.assign(config_.cores, CoreState{});
  job_to_wait_.clear();
  bus_waits_.clear();
  flush_gate_cycles_ = 0;
  for (const auto& b : owned_backends_) b->begin_run();
}

cfsm::ReactionInputs CoSimMaster::merge_inputs(
    cfsm::CfsmId task, const cfsm::ReactionInputs& trigger) const {
  cfsm::ReactionInputs merged;
  // Sampled inputs first: the latest latched value of each sampled event
  // (POLIS valued events persist); trigger events override.
  for (const cfsm::EventId e : net_->cfsm(task).sampled_inputs()) {
    const auto& v = latched_[static_cast<std::size_t>(e)];
    if (v) merged.set(e, *v);
  }
  for (const auto& [e, v] : trigger.all()) merged.set(e, v);
  return merged;
}

void CoSimMaster::latch_occurrence(const sim::EventOccurrence& occ) {
  latched_[static_cast<std::size_t>(occ.event)] = occ.value;
}

TransitionCost CoSimMaster::measured_or_accelerated(
    cfsm::CfsmId task, cfsm::PathId path,
    const std::function<TransitionCost()>& simulate,
    const std::vector<swsyn::MacroOp>* macro_stream) {
  switch (config_.accel) {
    case Acceleration::kNone:
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
    case Acceleration::kMacroModel: {
      if (macro_stream != nullptr) {
        const PathEstimate est = macromodel_.estimate(*macro_stream);
        return {est.cycles, est.energy, false};
      }
      // Hardware parts have no software macro-model; simulate them.
      return simulate();
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

TransitionCost CoSimMaster::sw_transition_cost(
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
  req.path = path;
  req.inputs = &inputs;
  req.pre_state = &pre_state;
  req.reaction = &reaction;
  req.post_state = &state_[static_cast<std::size_t>(task)];
  SwBackend* sw = sw_backend_of(task);
  auto simulate = [&]() -> TransitionCost { return sw->cost(req); };
  return measured_or_accelerated(task, path, simulate, nullptr);
}

TransitionCost CoSimMaster::hw_transition_cost(
    cfsm::CfsmId task, const cfsm::ReactionInputs& inputs,
    const cfsm::Reaction& reaction, cfsm::PathId path) {
  HwBackend* hw = hw_backend_for_[static_cast<std::size_t>(task)];
  // The master resynchronized the register state (if dirty) before running
  // the behavioral reaction, so the netlist sees the correct pre-state.
  TransitionRequest req;
  req.task = task;
  req.path = path;
  req.inputs = &inputs;
  req.reaction = &reaction;
  req.post_state = &state_[static_cast<std::size_t>(task)];
  auto simulate = [&]() -> TransitionCost { return hw->cost(req); };
  // Table 1 accelerates the ISS side only (zero accuracy loss); HW-side
  // caching/sampling is the opt-in ablation.
  TransitionCost cost = config_.accelerate_hw
                            ? measured_or_accelerated(task, path, simulate,
                                                      nullptr)
                            : simulate();
  hw->mark_skipped(task, !cost.simulated);
  return cost;
}

RunResults CoSimMaster::run(const sim::Stimulus& stimulus) {
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
  std::vector<sim::EventOccurrence> occs;  // instant buffer, reused per pop
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
      if (cs.pending.empty() || cs.bus.active || cs.blocked) continue;
      sim::SimTime earliest = kInfTime;
      for (const auto& p : cs.pending)
        earliest = std::min(earliest, p.ready_at);
      const sim::SimTime t = std::max(cs.free_at, earliest);
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
        const auto it = job_to_wait_.find(c.id);
        assert(it != job_to_wait_.end());
        BusWait& w = bus_waits_[it->second];
        job_to_wait_.erase(it);
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
            const Joules wait_e = config_.bus_wait_current_ma * 1e-3 *
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
      }
      continue;
    }

    if (t_bus < t_queue && t_bus <= t_cpu) {
      // ---- issue a blocked CPU's shared-memory traffic ----------------------
      CoreState& cs = cores_[bus_core];
      now = cs.bus.issue_at;
      BusWait w;
      w.task = cs.bus.task;
      w.is_cpu = true;
      w.core = bus_core;
      w.emissions = std::move(cs.bus.emissions);
      w.remaining = cs.bus.requests.size();
      w.earliest_done = now;
      w.cpu_issue = now;
      bus_waits_.push_back(std::move(w));
      for (auto& rq : cs.bus.requests)
        job_to_wait_[bus_->submit(now, std::move(rq))] =
            bus_waits_.size() - 1;
      cs.blocked = true;
      cs.bus = {};
      continue;
    }

    if (t_queue <= t_cpu) {
      // ---- process one event instant --------------------------------------
      queue_.pop_instant(occs);
      now = occs.front().time;
      for (const auto& o : occs) {
        latch_occurrence(o);
        for (const auto& hook : environment_hooks_) hook(o, queue_);
      }

      // Group occurrences by triggered process.
      std::vector<cfsm::CfsmId> triggered;
      std::vector<cfsm::ReactionInputs> trig_inputs(net_->cfsm_count());
      for (const auto& o : occs) {
        for (const cfsm::CfsmId r : receivers_by_event_
                 [static_cast<std::size_t>(o.event)]) {
          auto& in = trig_inputs[static_cast<std::size_t>(r)];
          if (in.empty()) triggered.push_back(r);
          in.set(o.event, o.value);
        }
      }
      std::sort(triggered.begin(), triggered.end());

      for (const cfsm::CfsmId task : triggered) {
        const auto& trig = trig_inputs[static_cast<std::size_t>(task)];
        if (is_sw(task)) {
          cores_[core_of_[static_cast<std::size_t>(task)]].pending.push_back(
              {now, task, trig});
          continue;
        }
        // Hardware reaction at this instant.
        ++res.reactions;
        ++res.hw_reactions;
        const cfsm::ReactionInputs inputs = merge_inputs(task, trig);
        auto& st = state_[static_cast<std::size_t>(task)];
        const cfsm::CfsmState pre_state = st;
        HwBackend* hw = hw_backend_for_[static_cast<std::size_t>(task)];
        if (hw_online()) hw->resync_if_dirty(task, pre_state);
        const cfsm::Reaction reaction =
            net_->cfsm(task).react(inputs, st);
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
            cost = hw_transition_cost(task, inputs, reaction, path);
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
        std::vector<bus::BusRequest> reqs;
        if (traffic_hook_) reqs = traffic_hook_(task, reaction, pre_state);
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
          BusWait w;
          w.task = task;
          w.emissions = reaction.emissions;
          w.remaining = reqs.size();
          w.earliest_done = latency;
          bus_waits_.push_back(std::move(w));
          for (auto& rq : reqs)
            job_to_wait_[bus_->submit(now, std::move(rq))] =
                bus_waits_.size() - 1;
        }
      }
      continue;
    }

    // ---- dispatch one software transition on the chosen core ----------------
    now = t_cpu;
    CoreState& cpu = cores_[cpu_core];
    std::vector<cfsm::CfsmId> ready_tasks;
    std::vector<std::size_t> ready_idx;
    for (std::size_t i = 0; i < cpu.pending.size(); ++i) {
      if (cpu.pending[i].ready_at <= now) {
        ready_tasks.push_back(cpu.pending[i].task);
        ready_idx.push_back(i);
      }
    }
    assert(!ready_tasks.empty());
    const std::size_t pick = rtos_.pick_next(ready_tasks);
    const PendingSw pending = cpu.pending[ready_idx[pick]];
    cpu.pending.erase(cpu.pending.begin() +
                      static_cast<std::ptrdiff_t>(ready_idx[pick]));

    ++res.reactions;
    ++res.sw_reactions;
    const cfsm::CfsmId task = pending.task;
    const cfsm::ReactionInputs inputs =
        merge_inputs(task, pending.trigger_inputs);
    auto& st = state_[static_cast<std::size_t>(task)];
    const cfsm::CfsmState pre_state = st;
    const cfsm::Reaction reaction = net_->cfsm(task).react(inputs, st);

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

    std::vector<bus::BusRequest> reqs;
    if (traffic_hook_ && !reaction.trace.empty())
      reqs = traffic_hook_(task, reaction, pre_state);
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
      cpu.bus.requests = std::move(reqs);
      cpu.bus.emissions = reaction.emissions;
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

void CoSimMaster::flush_hw_batches(RunResults& res) {
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

sim::SimTime CoSimMaster::coherence_traffic(int core, sim::SimTime now,
                                            std::vector<bus::BusRequest>& reqs,
                                            RunResults& res) {
  Cycles penalty = 0;
  Joules energy = 0.0;
  std::vector<bus::BusRequest> control;
  for (const bus::BusRequest& rq : reqs) {
    const auto bytes =
        static_cast<std::uint32_t>(rq.data.empty() ? 4u : rq.data.size());
    const cache::CoherentAccessResult co =
        cache_->data_access(core, rq.write, rq.addr, bytes);
    penalty += co.penalty_cycles;
    energy += co.energy;
    control.insert(control.end(), co.traffic.begin(), co.traffic.end());
  }
  if (energy > 0.0) {
    trace_.record(cache_component_, now, energy);
    res.cache_energy += energy;
  }
  // Invalidation/writeback messages ride the interconnect with the data
  // transfer they were caused by.
  reqs.insert(reqs.end(), std::make_move_iterator(control.begin()),
              std::make_move_iterator(control.end()));
  return static_cast<sim::SimTime>(penalty);
}

RunResults CoSimMaster::run_separate(const sim::Stimulus& stimulus) {
  assert(prepared_);
  check_structural_config();
  const auto wall0 = std::chrono::steady_clock::now();

  // ---- phase 1: timing-independent behavioral simulation, trace capture ----
  reset_runtime_state();
  stimulus.load_into(queue_);
  std::vector<std::vector<cfsm::ReactionInputs>> traces(net_->cfsm_count());
  std::uint64_t reactions = 0;
  bool truncated = false;
  std::vector<sim::EventOccurrence> occs;  // instant buffer, reused per pop
  while (!queue_.empty()) {
    if (reactions >= config_.max_reactions) {
      truncated = true;
      break;
    }
    queue_.pop_instant(occs);
    const sim::SimTime t = occs.front().time;
    for (const auto& o : occs) {
      latch_occurrence(o);
      for (const auto& hook : environment_hooks_) hook(o, queue_);
    }
    std::vector<cfsm::CfsmId> triggered;
    std::vector<cfsm::ReactionInputs> trig_inputs(net_->cfsm_count());
    for (const auto& o : occs) {
      for (const cfsm::CfsmId r :
           receivers_by_event_[static_cast<std::size_t>(o.event)]) {
        auto& in = trig_inputs[static_cast<std::size_t>(r)];
        if (in.empty()) triggered.push_back(r);
        in.set(o.event, o.value);
      }
    }
    std::sort(triggered.begin(), triggered.end());
    for (const cfsm::CfsmId task : triggered) {
      ++reactions;
      const cfsm::ReactionInputs inputs =
          merge_inputs(task, trig_inputs[static_cast<std::size_t>(task)]);
      auto& st = state_[static_cast<std::size_t>(task)];
      const cfsm::Reaction reaction = net_->cfsm(task).react(inputs, st);
      traces[static_cast<std::size_t>(task)].push_back(inputs);
      // Nominal unit delay: every transition takes one cycle.
      for (const auto& em : reaction.emissions)
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
      for (const auto& inputs : traces[c]) {
        const cfsm::CfsmState pre = st;
        const cfsm::Reaction reaction = net_->cfsm(task).react(inputs, st);
        if (reaction.trace.empty()) continue;
        e += sw_backend_of(task)->replay(task, inputs, pre) +
             rtos_.dispatch_energy();
        ++res.sw_reactions;
      }
      res.cpu_energy += e;
    } else {
      HwBackend* hw = hw_backend_for_[c];
      hw->separate_reset(task);
      for (const auto& inputs : traces[c]) {
        const cfsm::Reaction reaction = net_->cfsm(task).react(inputs, st);
        if (reaction.trace.empty()) {
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
  for (SwBackend* sw : sw_backends_) sw->stats(res);
  if (hw_gate_) hw_gate_->stats(res);
  if (hw_rtl_) hw_rtl_->stats(res);
  res.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();
  return res;
}

const MacroModelLibrary& CoSimMaster::macromodel() const {
  assert(prepared_);
  return macromodel_;
}

void CoSimMaster::set_macromodel(MacroModelLibrary library) {
  macromodel_ = std::move(library);
  mm_memo_.assign(net_->cfsm_count(), {});
}

cfsm::PathTable& CoSimMaster::path_table(cfsm::CfsmId task) {
  return path_tables_.at(static_cast<std::size_t>(task));
}

SwBackend* CoSimMaster::sw_backend_of(cfsm::CfsmId task) const {
  if (sw_for_core_.empty()) return nullptr;
  if (SwBackend* b = sw_for_core_[core_of_.at(static_cast<std::size_t>(task))])
    return b;
  // Hardware tasks sit on core 0 by default; fall back to any software
  // backend so image lookups keep their "nullptr when unmapped" semantics.
  return sw_backends_.empty() ? nullptr : sw_backends_.front();
}

const swsyn::SwImage* CoSimMaster::sw_image(cfsm::CfsmId task) const {
  SwBackend* sw = sw_backend_of(task);
  return sw ? sw->image(task) : nullptr;
}

const hwsyn::HwImage* CoSimMaster::hw_image(cfsm::CfsmId task) const {
  const HwBackend* hw = hw_backend_for_.at(static_cast<std::size_t>(task));
  return hw ? hw->image(task) : nullptr;
}

std::vector<const ComponentEstimator*> CoSimMaster::backends() const {
  std::vector<const ComponentEstimator*> out;
  out.reserve(owned_backends_.size());
  for (const auto& b : owned_backends_) out.push_back(b.get());
  return out;
}

CoSimMaster::WarmSnapshot CoSimMaster::export_warm_state() const {
  WarmSnapshot snap;
  snap.backends.reserve(owned_backends_.size());
  for (const auto& b : owned_backends_)
    snap.backends.push_back(b->export_warm_state());
  snap.ecache = ecache_.export_entries();
  snap.ecache_hits = ecache_.hits();
  snap.ecache_simulations = ecache_.simulations();
  return snap;
}

bool CoSimMaster::import_warm_state(const WarmSnapshot& snap) {
  if (!prepared_ || snap.backends.size() != owned_backends_.size())
    return false;
  for (std::size_t i = 0; i < owned_backends_.size(); ++i)
    owned_backends_[i]->import_warm_state(snap.backends[i]);
  ecache_.import_entries(snap.ecache, snap.ecache_hits,
                         snap.ecache_simulations);
  return true;
}

ComponentEstimator::WarmCacheCounters CoSimMaster::warm_cache_counters()
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
