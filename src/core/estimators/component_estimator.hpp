// The component-power-estimator interface of the paper's Figure 2(b).
//
// The simulation master (core::CoSimMaster) owns only discrete-event
// scheduling: the event queue, value latching, RTOS serialization, the
// pending-software and bus-wait bookkeeping, and the acceleration policy
// (energy cache / macro-model / sampling). Everything that actually *prices*
// a component — the ISS, the gate-level and RT-level hardware simulators,
// the instruction cache, the bus arbiter — lives behind ComponentEstimator,
// so backends can be swapped per accuracy/speed point (or replaced by an
// emulated/remote implementation) without touching the scheduler.
//
// Lifecycle, driven by the master:
//   create (EstimatorRegistry, by name from EstimatorSelection)
//   -> prepare(ctx)   build the lower-level simulators for the assigned
//                     processes (compile SW, synthesize netlists, ...)
//   -> per run:  begin_run()         reset per-run simulator state
//                cost()/role calls   price transitions as scheduled
//                flush(jobs)         contribute deferred batch work
//                stats(res)          report per-backend counters
//
// Determinism contract: a backend must be a pure function of the request
// stream — no wall clock, no global mutable state — so that co-estimation
// results stay bit-identical run to run and across thread counts. Flush
// jobs in particular are executed on a worker pool and must not touch
// shared state; their results are merged by the master in component order.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "bus/bus_model.hpp"
#include "bus/interconnect.hpp"
#include "cache/cache_sim.hpp"
#include "cache/coherence.hpp"
#include "cfsm/cfsm.hpp"
#include "core/coestimator_config.hpp"
#include "hw/analytical.hpp"
#include "hw/reaction_cache.hpp"
#include "hwsyn/synth.hpp"
#include "swsyn/codegen.hpp"

namespace socpower::core {

/// Measured (or estimated) price of one CFSM transition.
struct TransitionCost {
  double cycles = 0.0;
  Joules energy = 0.0;
  bool simulated = true;  // false when served by an acceleration shortcut
};

/// Everything a backend may inspect while pricing one transition. Pointers
/// refer to master-owned state valid for the duration of the call.
struct TransitionRequest {
  cfsm::CfsmId task = cfsm::kNoCfsm;
  cfsm::PathId path = cfsm::kNoPath;
  sim::SimTime now = 0;
  const cfsm::ReactionInputs* inputs = nullptr;
  /// Process state before the transition (staging / verification).
  const cfsm::CfsmState* pre_state = nullptr;
  /// The behavioral (golden) reaction being priced.
  const cfsm::Reaction* reaction = nullptr;
  /// Process state after the behavioral reaction (verify_lowlevel).
  const cfsm::CfsmState* post_state = nullptr;
};

/// What the master hands a backend at prepare() time. The pointers outlive
/// the backend (they are owned by the facade/master).
struct EstimatorContext {
  const cfsm::Network* network = nullptr;
  const CoEstimatorConfig* config = nullptr;
  /// CFSM processes assigned to this backend (empty for resource backends
  /// such as the bus and the cache).
  std::vector<cfsm::CfsmId> components;
  /// Master-owned per-process path tables (stable storage; flush jobs read
  /// them concurrently, so they must not be mutated during a flush).
  const std::vector<cfsm::PathTable>* path_tables = nullptr;
};

/// Warm, run-independent state one backend can hand to the serve layer's
/// checkpoint writer and accept back after a restore: the caches that make
/// a backend's Nth run cheaper than its first, in a transport-neutral form
/// (plain structs — the wire/disk encoding lives in serve/, not here).
/// Importing never changes results, only hit rates: block entries re-decode
/// deterministically and reaction entries are content-keyed bit-exact
/// replays.
struct BackendWarmState {
  /// Entry PCs of pre-decoded ISS blocks (SW backends).
  std::vector<std::uint32_t> block_entries;
  /// Memoized gate-level reaction tables, one per owned hardware unit.
  struct UnitReactions {
    cfsm::CfsmId task = cfsm::kNoCfsm;
    std::vector<hw::ExportedReaction> entries;
  };
  std::vector<UnitReactions> reactions;
  /// Calibrated analytical coefficients (hw.analytical backends; empty for
  /// everyone else). Importing marks the covered units fitted, so a warm
  /// session never replays the gate-level calibration prefix.
  hw::AnalyticalModel analytical;
};

class ComponentEstimator {
 public:
  /// One deferred-batch replay result row (timestamp attribution happens in
  /// the master, in component order, so flushes parallelize bit-identically).
  struct FlushEntry {
    sim::SimTime time = 0;
    cfsm::PathId path = cfsm::kNoPath;
    Joules energy = 0.0;
  };
  struct FlushResult {
    std::vector<FlushEntry> entries;
    std::uint64_t gate_cycles = 0;
  };
  /// A unit of deferred work: `work` runs on a pool worker (thread-safe by
  /// construction: it may only touch the one unit it closes over), keyed by
  /// the component it prices so the master can merge in component order.
  struct FlushJob {
    cfsm::CfsmId component = cfsm::kNoCfsm;
    std::function<FlushResult()> work;
  };

  virtual ~ComponentEstimator() = default;

  /// Registry name this backend was created under (telemetry namespace:
  /// counters live under "estimator.<name>.*").
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Build the lower-level simulators for ctx.components.
  virtual void prepare(const EstimatorContext& ctx) = 0;

  /// Reset per-run simulator state (called by the master at the start of
  /// every run; per-run config knobs are re-read here).
  virtual void begin_run() = 0;

  /// Invoke the lower-level estimator for one transition. The acceleration
  /// policy is the master's: when a transition is served from the energy
  /// cache or the macro-model this is simply never called.
  virtual TransitionCost cost(const TransitionRequest& req) = 0;

  /// Append this backend's deferred batch work (one job per component with
  /// pending vectors). Backends with no deferred work append nothing.
  virtual void flush(std::vector<FlushJob>& jobs) = 0;

  /// Contribute per-backend counters to the run results.
  virtual void stats(RunResults& res) const = 0;

  /// CFSM processes this backend prices (resource backends return {}).
  [[nodiscard]] virtual std::vector<cfsm::CfsmId> component_ids() const = 0;

  // -- checkpoint/restore ----------------------------------------------------
  /// Warm cache state worth carrying across processes; backends with none
  /// (bus, cache) return the empty default.
  [[nodiscard]] virtual BackendWarmState export_warm_state() const {
    return {};
  }
  /// Install previously exported warm state into a freshly prepared backend
  /// of the same structural config. Unknown tasks/entries are ignored.
  virtual void import_warm_state(const BackendWarmState& /*state*/) {}

  /// Cumulative hit/fill counters of this backend's internal warm caches
  /// (ISS block cache, per-unit reaction caches) since prepare(). The serve
  /// layer reports the per-request delta, which is what makes warm-vs-cold
  /// hit rates observable per estimation request.
  struct WarmCacheCounters {
    std::uint64_t hits = 0;
    std::uint64_t fills = 0;  ///< decodes / misses (cache-populating work)
  };
  [[nodiscard]] virtual WarmCacheCounters warm_cache_counters() const {
    return {};
  }
};

// ---- role refinements ------------------------------------------------------
//
// The master needs a handful of role-specific entry points beyond the common
// interface (the software backend stages register state, the bus backend is
// part of the scheduler's timebase, ...). A backend registered for a role
// must derive from that role's refinement; the master downcasts once at
// prepare() and rejects a backend that does not implement its role.

class SwBackend : public ComponentEstimator {
 public:
  /// Compiled image of an owned software process (nullptr when not owned).
  [[nodiscard]] virtual const swsyn::SwImage* image(cfsm::CfsmId task) const = 0;
  /// Trace-replay measurement for the Section 2 separate baseline: one
  /// lower-level invocation, no sync overhead, no cross-verification.
  virtual Joules replay(cfsm::CfsmId task, const cfsm::ReactionInputs& inputs,
                        const cfsm::CfsmState& pre_state) = 0;
};

class HwBackend : public ComponentEstimator {
 public:
  [[nodiscard]] virtual const hwsyn::HwImage* image(cfsm::CfsmId task) const = 0;
  /// Resynchronize the netlist registers with the behavioral state if the
  /// unit skipped simulations (served from the cache) since the last sync.
  virtual void resync_if_dirty(cfsm::CfsmId task,
                               const cfsm::CfsmState& state) = 0;
  /// Record whether the last transition of `task` was served without the
  /// simulator (its register state is then stale).
  virtual void mark_skipped(cfsm::CfsmId task, bool skipped) = 0;
  /// Reset transition observed while online: re-initialize the netlist.
  virtual void reset_unit(cfsm::CfsmId task) = 0;
  /// Batch mode: buffer the input vector for the offline flush. `pre_state`
  /// is the behavioral process state before the reaction; hw.analytical
  /// prices its flush entries from it.
  virtual void enqueue(cfsm::CfsmId task, sim::SimTime time,
                       const cfsm::ReactionInputs& inputs, cfsm::PathId path,
                       const cfsm::CfsmState& pre_state) = 0;
  /// Separate-estimation baseline: reset / step the unit's own simulator on
  /// a captured trace (always gate-level, as the Section 2 flow replays the
  /// netlist directly).
  virtual void separate_reset(cfsm::CfsmId task) = 0;
  virtual Joules separate_step(cfsm::CfsmId task,
                               const cfsm::ReactionInputs& inputs) = 0;
};

class CacheBackend : public ComponentEstimator {
 public:
  /// Run one reference stream through the cache model.
  virtual cache::AccessStats access(
      std::span<const std::uint32_t> addresses) = 0;
  /// Per-core instruction-cache access (multicore masters); the default
  /// forwards to the single shared cache, which is the core-0 path.
  virtual cache::AccessStats access_core(
      unsigned /*core*/, std::span<const std::uint32_t> addresses) {
    return access(addresses);
  }
  /// Coherent shared-data access (multicore): run one access of `bytes`
  /// bytes through the private-L1 MSI model. `core` < 0 is an uncached
  /// agent (hardware DMA master). Backends without a coherence model return
  /// the empty result — no penalty, no energy, no traffic.
  virtual cache::CoherentAccessResult data_access(int /*core*/,
                                                  bool /*write*/,
                                                  std::uint32_t /*addr*/,
                                                  std::uint32_t /*bytes*/) {
    return {};
  }
};

class BusBackend : public ComponentEstimator {
 public:
  virtual bus::BusScheduler::JobId submit(sim::SimTime now,
                                          bus::BusRequest request) = 0;
  [[nodiscard]] virtual bool has_work() const = 0;
  [[nodiscard]] virtual sim::SimTime next_boundary() const = 0;
  virtual std::vector<bus::BusScheduler::Completion> advance(
      sim::SimTime t) = 0;
  /// Underlying scheduler (read-only introspection: grant times, params).
  /// Only meaningful for the arbitrated-bus backend; a routed-interconnect
  /// backend aborts here — use interconnect() for implementation-neutral
  /// introspection.
  [[nodiscard]] virtual const bus::BusScheduler& scheduler() const = 0;
  /// The interconnect behind this backend (bus or NoC).
  [[nodiscard]] virtual const bus::Interconnect& interconnect() const {
    return scheduler();
  }
};

/// Deterministic busy-work standing in for the IPC round-trip the paper's
/// multi-process setup pays per lower-level simulator invocation.
void sync_overhead(unsigned spins);

}  // namespace socpower::core
