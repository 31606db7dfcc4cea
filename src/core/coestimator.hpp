// The SOC power co-estimation framework (paper Sections 3 and 4): the
// simulation master of Figure 2(b), generalized to N-core SoCs.
//
// CoEstimator plays the PTOLEMY role. It simulates the discrete-event
// behavioral model of the whole system (the golden CFSM network) and owns
// nothing but scheduling state: the event queue and value latches, the
// per-core RTOS serialization of software transitions, the per-core
// pending-software and bus-wait bookkeeping, and the acceleration policy of
// Section 4. Component *pricing* is delegated to core::ComponentEstimator
// backends (estimators/) created by name from the EstimatorRegistry
// (CoEstimatorConfig::estimators):
//   * one SwBackend per core that runs software: the compiled SLITE code on
//     the ISS, serialized on its CPU by the RTOS model;
//   * one HwBackend per hardware flavor, gate level or RT level, chosen per
//     ASIC by map_hw();
//   * a cache backend: per-core private instruction caches fed from the
//     per-path reference stream (the ISS assumes 100 % hits), optionally an
//     MSI-coherent data side;
//   * one interconnect backend, the arbitrated bus or the routed mesh, that
//     carries the shared-memory traffic.
//
//          ┌───────────────── CoEstimator ───────────────────┐
//          │ event queue · latches · RTOS · per-core state   │
//          │ energy cache / macro-model / sampling           │
//          └──┬────────┬──────────┬─────────┬─────────┬──────┘
//             ▼        ▼          ▼         ▼         ▼
//          SwBackend×N HwBackend  HwBackend CacheB.  BusBackend
//          (sw.iss)    (hw.gate)  (hw.rtl)  (cache.*)(bus.* / bus.noc)
//
// Cycle and energy statistics are collected per component into a PowerTrace.
// The unit of synchronization is a CFSM transition, exactly as in POLIS.
// With cores == 1 (the default) the schedule, floating-point accumulation
// order and backend list are those of the original single-CPU master — the
// goldens in tests/facade_goldens.hpp pin this down.
//
// Acceleration (Section 4) is selectable per run:
//   kNone       every transition invokes the lower-level estimator,
//   kCaching    (task, path) energy/delay cache with variance thresholds,
//   kMacroModel software transitions priced by the characterized macro-op
//               library; the ISS is never invoked,
//   kSampling   K-memory dynamic sequence compaction decides which
//               transitions are simulated; the rest extrapolate from
//               per-path running means.
//
// run_separate() reproduces the paper's Section 2 baseline: a behavioral
// (timing-independent) simulation captures per-component input traces, then
// each component estimator runs in isolation on its trace.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
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
#include "util/slot_vector.hpp"

namespace socpower::core {

class CoEstimator {
 public:
  CoEstimator(const cfsm::Network* network, CoEstimatorConfig config = {});
  ~CoEstimator();

  CoEstimator(const CoEstimator&) = delete;
  CoEstimator& operator=(const CoEstimator&) = delete;

  // -- implementation mapping (before prepare) -------------------------------
  // Every process must be mapped to software or hardware; prepare() aborts
  // on one that is neither.
  void map_sw(cfsm::CfsmId task, int rtos_priority = 0);
  /// Multicore mapping: run `task` as software on CPU `core` (0-based).
  /// Aborts when core >= config.cores.
  void map_sw(cfsm::CfsmId task, unsigned core, int rtos_priority);
  void map_hw(cfsm::CfsmId task,
              HwEstimatorKind kind = HwEstimatorKind::kGateLevel);
  [[nodiscard]] bool is_sw(cfsm::CfsmId task) const;

  void set_traffic_hook(TrafficHook hook) { traffic_hook_ = std::move(hook); }
  void set_transition_hook(TransitionHook hook) {
    transition_hook_ = std::move(hook);
  }
  /// Hooks compose: systems install their IP models (shared memory, ...)
  /// and observers/tests may add more; all are called per occurrence in
  /// installation order.
  void set_environment_hook(EnvironmentHook hook) {
    environment_hooks_.push_back(std::move(hook));
  }

  /// Validate the network, the mapping and the config, instantiate the
  /// selected backends, and have them compile SW images, synthesize HW
  /// netlists and build their simulators; characterize the macro-op
  /// library. Must be called once before run().
  void prepare();

  // -- runs -------------------------------------------------------------------
  /// Power co-estimation (concurrent, synchronized estimators).
  RunResults run(const sim::Stimulus& stimulus);
  /// The Section 2 baseline: separate per-component estimation driven by
  /// traces captured from a timing-independent behavioral simulation.
  RunResults run_separate(const sim::Stimulus& stimulus);

  // -- introspection ----------------------------------------------------------
  [[nodiscard]] const MacroModelLibrary& macromodel() const;
  /// Replace the characterized macro-op library (e.g. one loaded from a
  /// parameter file produced on another machine — the characterize-once
  /// workflow of Figure 3). Clears the per-path estimate memos.
  void set_macromodel(MacroModelLibrary library);
  [[nodiscard]] const EnergyCache& energy_cache() const { return ecache_; }
  [[nodiscard]] cfsm::PathTable& path_table(cfsm::CfsmId task);
  [[nodiscard]] const swsyn::SwImage* sw_image(cfsm::CfsmId task) const;
  /// Behavioral state of a process after the last run (functional checks).
  [[nodiscard]] const cfsm::CfsmState& process_state(cfsm::CfsmId task) const {
    return state_.at(static_cast<std::size_t>(task));
  }
  [[nodiscard]] const hwsyn::HwImage* hw_image(cfsm::CfsmId task) const;
  /// Power waveform support (requires keep_power_samples).
  [[nodiscard]] const sim::PowerTrace& power_trace() const { return trace_; }
  [[nodiscard]] const bus::BusScheduler& bus_model() const {
    return bus_->scheduler();
  }
  [[nodiscard]] CoEstimatorConfig& config() { return config_; }
  [[nodiscard]] const CoEstimatorConfig& config() const { return config_; }

  /// The backends built by prepare(), in role order: sw (one per core that
  /// runs software), hw gate, hw rtl, cache, bus. A hardware role with no
  /// mapped process is absent. For telemetry and tests; warm-state import
  /// matches backends by this index.
  [[nodiscard]] std::vector<const ComponentEstimator*> backends() const;

  // -- checkpoint/restore ----------------------------------------------------
  /// Warm, run-independent state of a prepared estimator: the per-backend
  /// caches (ISS decoded blocks, gate-level reaction tables) plus the energy
  /// cache as the last run left it. This is what serve/ checkpoints; the
  /// structural config and mapping are serialized separately and rebuild the
  /// estimator itself.
  struct WarmSnapshot {
    std::vector<BackendWarmState> backends;  ///< backends() order
    std::vector<EnergyCache::ExportedEntry> ecache;
    std::uint64_t ecache_hits = 0;
    std::uint64_t ecache_simulations = 0;
  };
  [[nodiscard]] WarmSnapshot export_warm_state() const;
  /// Install a snapshot into a freshly prepared estimator with the same
  /// structural config and mapping. False (and no state change) when the
  /// estimator is unprepared or the backend count disagrees — the caller
  /// built a different structure than the snapshot describes.
  [[nodiscard]] bool import_warm_state(const WarmSnapshot& snap);

  /// Sum of the backends' warm-cache hit/fill counters (serve telemetry:
  /// per-request deltas of these are the cold-vs-warm story).
  [[nodiscard]] ComponentEstimator::WarmCacheCounters warm_cache_counters()
      const;

 private:
  /// A software transition's shared-memory traffic, issued when its compute
  /// phase ends. Kept pending so the bus request enters arbitration in
  /// simulated-time order (causally with hardware traffic); the CPU blocks
  /// (programmed I/O) and its emissions are released at transfer completion.
  /// The vectors keep their capacity from one bus phase to the next.
  struct PendingSwBus {
    bool active = false;
    sim::SimTime issue_at = 0;
    cfsm::CfsmId task = cfsm::kNoCfsm;
    std::vector<bus::BusRequest> requests;
    std::vector<cfsm::EmittedEvent> emissions;
  };
  /// Emissions gated on outstanding bus transfers (a HW reaction's DMA
  /// block reads, or a blocked CPU's writes). Released when the last of
  /// the reaction's jobs completes on the interconnect; the slot then goes
  /// back to free_waits_ with its emissions buffer.
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
  /// Per-core scheduling state: the core's ready queue (payload: the
  /// trigger inputs), its deferred bus phase, and whether/until when the
  /// core is busy.
  struct CoreState {
    swsyn::ReadyQueue<cfsm::ReactionInputs> ready;
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
  /// Fill `merged` with a reaction's inputs: the latched values of the
  /// task's sampled events, overridden by its trigger events.
  void merge_inputs(cfsm::CfsmId task, const cfsm::ReactionInputs& trigger,
                    cfsm::ReactionInputs& merged) const;
  void latch_occurrence(const sim::EventOccurrence& occ);
  /// Pop the next event instant into occs_, latch its values, run the
  /// environment hooks, and group the occurrences by the processes they
  /// trigger: triggered_ (ascending id) and each one's trig_inputs_ slot.
  /// Returns the instant's time.
  sim::SimTime pop_and_group_instant();
  /// A cleared BusWait slot (recycled when one is free) and its index.
  std::uint32_t open_wait();
  /// Record that interconnect job `id` gates BusWait slot `wait`.
  void track_job(bus::Interconnect::JobId id, std::uint32_t wait);

  TransitionCost sw_transition_cost(cfsm::CfsmId task,
                                    const cfsm::ReactionInputs& inputs,
                                    const cfsm::CfsmState& pre_state,
                                    const cfsm::Reaction& reaction,
                                    cfsm::PathId path);
  TransitionCost hw_transition_cost(cfsm::CfsmId task,
                                    const cfsm::ReactionInputs& inputs,
                                    const cfsm::CfsmState& pre_state,
                                    const cfsm::Reaction& reaction,
                                    cfsm::PathId path);

  TransitionCost measured_or_accelerated(
      cfsm::CfsmId task, cfsm::PathId path,
      const std::function<TransitionCost()>& simulate);

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
  /// Owned backends in backends() order; the typed pointers below alias
  /// into this list.
  std::vector<std::unique_ptr<ComponentEstimator>> owned_backends_;
  std::vector<SwBackend*> sw_for_core_;  // per core (nullptr: no SW there)
  std::vector<HwBackend*> hw_backends_;  // creation order (gate, then RTL)
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
  /// BusWait slot per interconnect JobId. Both interconnects number a run's
  /// jobs 1, 2, 3, ... (their begin_run() starts a fresh model), so a flat
  /// vector indexed by id replaces a hash map.
  std::vector<std::uint32_t> wait_of_job_;
  std::vector<BusWait> bus_waits_;
  std::vector<std::uint32_t> free_waits_;  // released bus_waits_ slots

  // Per-reaction scratch, owned for the estimator's lifetime so the loop
  // reuses its storage from reaction to reaction and run to run.
  std::vector<sim::EventOccurrence> occs_;       // the current instant
  std::vector<cfsm::CfsmId> triggered_;          // processes it triggers
  std::vector<cfsm::ReactionInputs> trig_inputs_;  // per CfsmId
  cfsm::ReactionInputs inputs_;                  // merged reaction inputs
  cfsm::CfsmState pre_state_;                    // state before the reaction
  cfsm::Reaction reaction_;
  std::vector<bus::BusRequest> traffic_;         // TrafficHook output
  /// run_separate()'s captured input trace per CfsmId.
  std::vector<SlotVector<cfsm::ReactionInputs>> separate_traces_;
  /// Gate cycles contributed by the offline batch flush (merged from the
  /// per-unit flush jobs; online cycles are counted by the backends).
  std::uint64_t flush_gate_cycles_ = 0;
};

}  // namespace socpower::core
