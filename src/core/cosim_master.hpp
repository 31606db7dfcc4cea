// The simulation master of the paper's Figure 2(b), generalized to N-core
// SoCs.
//
// CoSimMaster simulates the discrete-event behavioral model of the whole
// system (the golden CFSM network) and owns nothing but scheduling state:
// the event queue and value latches, the per-core RTOS serialization of
// software transitions, the per-core pending-software and bus-wait
// bookkeeping, and the acceleration policy of Section 4 (energy cache,
// macro-op library, sequence-compaction sampling). Component *pricing* is
// delegated to ComponentEstimator backends created by name from the
// EstimatorRegistry (CoEstimatorConfig::estimators): one SwBackend per core
// that runs software, one HwBackend per hardware flavor, a cache backend
// (per-core private icaches, optionally an MSI-coherent data side) and one
// interconnect backend (arbitrated bus or routed mesh):
//
//          ┌───────────────── CoSimMaster ───────────────────┐
//          │ event queue · latches · RTOS · per-core state   │
//          │ energy cache / macro-model / sampling           │
//          └──┬────────┬──────────┬─────────┬─────────┬──────┘
//             ▼        ▼          ▼         ▼         ▼
//          SwBackend×N HwBackend  HwBackend CacheB.  BusBackend
//          (sw.iss)    (hw.gate)  (hw.rtl)  (cache.*)(bus.* / bus.noc)
//
// With cores == 1 (the default) the schedule, floating-point accumulation
// order and backend list are bit-identical to the original single-CPU
// master — the facade goldens pin this down.
//
// The unit of synchronization is a CFSM transition, exactly as in POLIS.
// The public entry point is the CoEstimator facade (coestimator.hpp); this
// class is the implementation and is also usable directly by tools that
// want to own backend selection programmatically.
#pragma once

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cfsm/cfsm.hpp"
#include "core/coestimator_config.hpp"
#include "core/compactor.hpp"
#include "core/energy_cache.hpp"
#include "core/estimators/component_estimator.hpp"
#include "core/macromodel.hpp"
#include "sim/event_queue.hpp"
#include "sim/power_trace.hpp"
#include "swsyn/rtos.hpp"

namespace socpower::core {

class CoSimMaster {
 public:
  CoSimMaster(const cfsm::Network* network, CoEstimatorConfig config);
  ~CoSimMaster();

  CoSimMaster(const CoSimMaster&) = delete;
  CoSimMaster& operator=(const CoSimMaster&) = delete;

  // -- implementation mapping (before prepare) -------------------------------
  void map_sw(cfsm::CfsmId task, int rtos_priority);
  /// Map a task onto a specific CPU core (0-based). Aborts when `core` is
  /// outside [0, config.cores) — a mapping error no run can recover from.
  void map_sw(cfsm::CfsmId task, unsigned core, int rtos_priority);
  void map_hw(cfsm::CfsmId task, HwEstimatorKind kind);
  [[nodiscard]] bool is_sw(cfsm::CfsmId task) const;
  [[nodiscard]] unsigned core_of(cfsm::CfsmId task) const {
    return core_of_.at(static_cast<std::size_t>(task));
  }

  void set_traffic_hook(TrafficHook hook) { traffic_hook_ = std::move(hook); }
  void set_transition_hook(TransitionHook hook) {
    transition_hook_ = std::move(hook);
  }
  void add_environment_hook(EnvironmentHook hook) {
    environment_hooks_.push_back(std::move(hook));
  }

  /// Validate the config, instantiate the selected backends, and have them
  /// compile/synthesize/build their simulators. Must be called once.
  void prepare();

  RunResults run(const sim::Stimulus& stimulus);
  RunResults run_separate(const sim::Stimulus& stimulus);

  // -- introspection ----------------------------------------------------------
  [[nodiscard]] const MacroModelLibrary& macromodel() const;
  void set_macromodel(MacroModelLibrary library);
  [[nodiscard]] const EnergyCache& energy_cache() const { return ecache_; }
  [[nodiscard]] cfsm::PathTable& path_table(cfsm::CfsmId task);
  [[nodiscard]] const swsyn::SwImage* sw_image(cfsm::CfsmId task) const;
  [[nodiscard]] const cfsm::CfsmState& process_state(cfsm::CfsmId task) const {
    return state_.at(static_cast<std::size_t>(task));
  }
  [[nodiscard]] const hwsyn::HwImage* hw_image(cfsm::CfsmId task) const;
  [[nodiscard]] const sim::PowerTrace& power_trace() const { return trace_; }
  [[nodiscard]] const bus::BusScheduler& bus_scheduler() const {
    return bus_->scheduler();
  }
  [[nodiscard]] CoEstimatorConfig& config() { return config_; }
  [[nodiscard]] const CoEstimatorConfig& config() const { return config_; }

  /// The backends serving this master, in role order (sw, hw gate, hw rtl,
  /// cache, bus; roles with no mapped process are absent). For telemetry
  /// and tests.
  [[nodiscard]] std::vector<const ComponentEstimator*> backends() const;

  // -- checkpoint/restore ----------------------------------------------------
  /// Warm, run-independent state of a prepared master: the per-backend
  /// caches (ISS decoded blocks, gate-level reaction tables) plus the energy
  /// cache as the last run left it. This is what serve/ checkpoints; the
  /// structural config and mapping are serialized separately and rebuild the
  /// master itself.
  struct WarmSnapshot {
    std::vector<BackendWarmState> backends;  ///< backends() order
    std::vector<EnergyCache::ExportedEntry> ecache;
    std::uint64_t ecache_hits = 0;
    std::uint64_t ecache_simulations = 0;
  };
  [[nodiscard]] WarmSnapshot export_warm_state() const;
  /// Install a snapshot into a freshly prepared master with the same
  /// structural config and mapping. False (and no state change) when the
  /// master is unprepared or the backend count disagrees — the caller built
  /// a different structure than the snapshot describes.
  [[nodiscard]] bool import_warm_state(const WarmSnapshot& snap);

  /// Sum of the backends' warm-cache hit/fill counters (serve telemetry:
  /// per-request deltas of these are the cold-vs-warm story).
  [[nodiscard]] ComponentEstimator::WarmCacheCounters warm_cache_counters()
      const;

 private:
  struct PendingSw {
    sim::SimTime ready_at = 0;
    cfsm::CfsmId task = cfsm::kNoCfsm;
    cfsm::ReactionInputs trigger_inputs;
  };
  /// A software transition's shared-memory traffic, issued when its compute
  /// phase ends. Kept pending so the bus request enters arbitration in
  /// simulated-time order (causally with hardware traffic); the CPU blocks
  /// (programmed I/O) and its emissions are released at transfer completion.
  struct PendingSwBus {
    bool active = false;
    sim::SimTime issue_at = 0;
    cfsm::CfsmId task = cfsm::kNoCfsm;
    std::vector<bus::BusRequest> requests;
    std::vector<cfsm::EmittedEvent> emissions;
  };
  /// Emissions gated on outstanding bus transfers (a HW reaction's DMA
  /// block reads, or a blocked CPU's writes). Released when the last of
  /// the reaction's jobs completes on the interconnect.
  struct BusWait {
    cfsm::CfsmId task = cfsm::kNoCfsm;
    bool is_cpu = false;
    unsigned core = 0;  // which CPU is blocked (is_cpu only)
    std::vector<cfsm::EmittedEvent> emissions;
    std::size_t remaining = 0;
    sim::SimTime earliest_done = 0;  // reaction-latency floor
    sim::SimTime last_end = 0;
    sim::SimTime cpu_issue = 0;      // wait-energy accounting
  };
  /// Per-core scheduling state: the core's ready queue, its deferred bus
  /// phase, and whether/until when the core is busy.
  struct CoreState {
    std::vector<PendingSw> pending;
    PendingSwBus bus;
    bool blocked = false;  // stalled on an in-flight transfer
    sim::SimTime free_at = 0;
  };

  void check_structural_config() const;
  void reset_runtime_state();
  [[nodiscard]] bool hw_online() const {
    return !config_.hw_batch || config_.verify_lowlevel ||
           config_.accelerate_hw;
  }
  void flush_hw_batches(RunResults& res);
  /// MSI data side of a reaction's shared-memory traffic: run each request
  /// through the coherent model as agent `core` (-1: uncached hardware
  /// master), bill the cache energy at `now`, append the resulting
  /// invalidation/writeback messages to `reqs`, and return the stall
  /// penalty in cycles. No-op (0) when coherence is disabled.
  sim::SimTime coherence_traffic(int core, sim::SimTime now,
                                 std::vector<bus::BusRequest>& reqs,
                                 RunResults& res);
  [[nodiscard]] cfsm::ReactionInputs merge_inputs(
      cfsm::CfsmId task, const cfsm::ReactionInputs& trigger) const;
  void latch_occurrence(const sim::EventOccurrence& occ);

  TransitionCost sw_transition_cost(cfsm::CfsmId task,
                                    const cfsm::ReactionInputs& inputs,
                                    const cfsm::CfsmState& pre_state,
                                    const cfsm::Reaction& reaction,
                                    cfsm::PathId path);
  TransitionCost hw_transition_cost(cfsm::CfsmId task,
                                    const cfsm::ReactionInputs& inputs,
                                    const cfsm::Reaction& reaction,
                                    cfsm::PathId path);

  TransitionCost measured_or_accelerated(
      cfsm::CfsmId task, cfsm::PathId path,
      const std::function<TransitionCost()>& simulate,
      const std::vector<swsyn::MacroOp>* macro_stream);

  const cfsm::Network* net_;
  CoEstimatorConfig config_;
  /// The config as of prepare(); structural_mismatch() compares its
  /// structural knobs with config_ at every run().
  CoEstimatorConfig structural_baseline_;
  std::vector<std::optional<bool>> impl_is_sw_;  // per CfsmId; nullopt unmapped
  std::vector<HwEstimatorKind> hw_kind_;         // per CfsmId
  std::vector<unsigned> core_of_;  // per CfsmId (0 unless map_sw says else)
  swsyn::RtosModel rtos_;
  TrafficHook traffic_hook_;
  TransitionHook transition_hook_;
  std::vector<EnvironmentHook> environment_hooks_;

  /// The software backend serving a task's core (nullptr when no software
  /// backend exists at all; a per-backend image lookup of an unmapped task
  /// yields nullptr as before).
  [[nodiscard]] SwBackend* sw_backend_of(cfsm::CfsmId task) const;

  bool prepared_ = false;
  /// Owned backends; the typed pointers below alias into this list.
  std::vector<std::unique_ptr<ComponentEstimator>> owned_backends_;
  std::vector<SwBackend*> sw_backends_;  // creation order (ascending core)
  std::vector<SwBackend*> sw_for_core_;  // per core (nullptr: no SW there)
  HwBackend* hw_gate_ = nullptr;
  HwBackend* hw_rtl_ = nullptr;
  CacheBackend* cache_ = nullptr;
  BusBackend* bus_ = nullptr;
  std::vector<HwBackend*> hw_backend_for_;  // per CfsmId (nullptr for SW)

  MacroModelLibrary macromodel_;
  EnergyCache ecache_;
  std::vector<DynamicCompactionStream> sampler_;  // per CfsmId
  std::vector<cfsm::PathTable> path_tables_;      // per CfsmId
  /// Lazily memoized macro-model estimates per (task, path): annotating the
  /// behavioral model once per path makes macro-modeled co-simulation O(1)
  /// per transition, as in POLIS (costs are annotated before simulation).
  std::vector<std::vector<std::optional<PathEstimate>>> mm_memo_;
  /// Instruction byte-address trace per (task, path), memoized on the
  /// path's first software execution (images are fixed after prepare()).
  std::vector<std::vector<std::vector<std::uint32_t>>> addr_memo_;

  std::vector<std::vector<cfsm::CfsmId>> receivers_by_event_;

  // Run-time state (valid during run()).
  sim::PowerTrace trace_;
  std::vector<sim::ComponentId> process_component_;  // per CfsmId
  sim::ComponentId bus_component_ = -1;
  sim::ComponentId cache_component_ = -1;
  std::vector<cfsm::CfsmState> state_;
  std::vector<std::optional<std::int32_t>> latched_;  // last value per event
  sim::EventQueue queue_;
  std::vector<CoreState> cores_;  // one slot per CPU core
  std::unordered_map<std::uint64_t, std::size_t> job_to_wait_;  // job -> slot
  std::vector<BusWait> bus_waits_;
  /// Gate cycles contributed by the offline batch flush (merged from the
  /// per-unit flush jobs; online cycles are counted by the backends).
  std::uint64_t flush_gate_cycles_ = 0;
};

}  // namespace socpower::core
