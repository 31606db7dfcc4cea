// Shared machinery of the hardware component estimators.
//
// Each ASIC mapped to this backend owns a synthesized FSMD netlist, a gate
// simulator over it, and (in batch mode) a buffered vector trace. The
// subclasses differ only in how one applied input vector is priced:
// HwGateEstimator steps the event-driven gate-level simulator,
// HwRtlEstimator walks the executed path's operator activations at RT
// level. Everything else — staging, register resynchronization after
// acceleration skips, batch buffering, and the per-unit offline flush jobs
// the master runs on its worker pool — is common and lives here.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/estimators/component_estimator.hpp"
#include "hw/gatesim.hpp"
#include "hw/reaction_cache.hpp"
#include "hwsyn/synth.hpp"

namespace socpower::core {

class HwEstimatorBase : public HwBackend {
 public:
  void prepare(const EstimatorContext& ctx) override;
  void begin_run() override;
  TransitionCost cost(const TransitionRequest& req) override;
  void flush(std::vector<FlushJob>& jobs) override;
  void stats(RunResults& res) const override;
  [[nodiscard]] std::vector<cfsm::CfsmId> component_ids() const override {
    return components_;
  }

  [[nodiscard]] const hwsyn::HwImage* image(cfsm::CfsmId task) const override;
  void resync_if_dirty(cfsm::CfsmId task,
                       const cfsm::CfsmState& state) override;
  void mark_skipped(cfsm::CfsmId task, bool skipped) override;
  void reset_unit(cfsm::CfsmId task) override;
  void enqueue(cfsm::CfsmId task, sim::SimTime time,
               const cfsm::ReactionInputs& inputs, cfsm::PathId path,
               const cfsm::CfsmState& pre_state) override;
  void separate_reset(cfsm::CfsmId task) override;
  Joules separate_step(cfsm::CfsmId task,
                       const cfsm::ReactionInputs& inputs) override;

  /// Reaction-cache statistics summed over this backend's hardware units
  /// (tests and examples; per-unit telemetry lives under
  /// "estimator.<name>.rcache.*").
  [[nodiscard]] hw::ReactionCacheStats reaction_cache_stats() const;

  [[nodiscard]] BackendWarmState export_warm_state() const override;
  void import_warm_state(const BackendWarmState& state) override;
  [[nodiscard]] WarmCacheCounters warm_cache_counters() const override;

  /// Incrementally price and clear `task`'s currently buffered batch slice.
  /// `first` marks the first slice of a run's batch: it pays the one batch
  /// hand-off sync and resets the gate simulator, exactly like the top of a
  /// whole-batch flush; later slices continue from the registers the
  /// previous slice left behind. Concatenating the slices' entries (and
  /// summing their gate_cycles) is bit-identical to flushing the whole
  /// batch at once: every entry goes through the same measure_flush() in
  /// the same order. Used by the dist::Worker to evaluate shipped chunks
  /// eagerly, overlapping with the master's DE loop; serialize calls per
  /// unit like flush jobs.
  [[nodiscard]] FlushResult drain_batch(cfsm::CfsmId task, bool first);

 protected:
  struct BatchEntry {
    sim::SimTime time = 0;
    cfsm::ReactionInputs inputs;
    cfsm::PathId path = cfsm::kNoPath;  // kNoPath == reset transition
    /// Behavioral state before the reaction: hw.analytical prices its
    /// flush entries from it.
    cfsm::CfsmState pre;
  };
  struct Unit {
    hwsyn::HwImage image;
    std::unique_ptr<hw::GateSim> sim;
    /// Reaction memoizer wrapping `sim`. One per unit — the parallel batch
    /// flush dispatches whole units, so no cache is ever shared between
    /// threads.
    std::unique_ptr<hw::ReactionCache> rcache;
    bool registers_dirty = false;  // gate sim skipped; state needs resync
    std::vector<BatchEntry> batch;
  };

  /// Price one online transition (sync overhead already charged).
  virtual Joules measure(Unit& unit, const TransitionRequest& req) = 0;
  /// Price one buffered vector during the offline flush. Runs on a pool
  /// worker: may only touch `unit` and `gate_cycles` (and this backend's
  /// immutable prepare()-time state).
  virtual Joules measure_flush(Unit& unit, cfsm::CfsmId task,
                               const BatchEntry& entry,
                               std::uint64_t* gate_cycles) = 0;
  [[nodiscard]] Unit& unit(cfsm::CfsmId task) {
    return *units_[static_cast<std::size_t>(task)];
  }

  /// Evaluate the staged reaction of `u` — through the reaction cache when
  /// one is attached (every consumer goes through here: online cost(), the
  /// batched flush, and the separate-estimation baseline).
  [[nodiscard]] hw::CycleResult step_unit(Unit& u) {
    return u.rcache ? u.rcache->step() : u.sim->step();
  }

  const cfsm::Network* net_ = nullptr;
  const CoEstimatorConfig* config_ = nullptr;
  const std::vector<cfsm::PathTable>* path_tables_ = nullptr;
  std::vector<cfsm::CfsmId> components_;
  std::vector<std::unique_ptr<Unit>> units_;  // per CfsmId
  /// Gate-simulator cycles evaluated online (flush cycles are returned per
  /// job and merged by the master).
  std::uint64_t gate_cycles_ = 0;

 private:
  [[nodiscard]] FlushResult run_flush(Unit& u, cfsm::CfsmId task);
  [[nodiscard]] FlushResult drain_into(Unit& u, cfsm::CfsmId task, bool first);
  [[nodiscard]] hw::ReactionCacheConfig reaction_cache_config() const;
};

}  // namespace socpower::core
