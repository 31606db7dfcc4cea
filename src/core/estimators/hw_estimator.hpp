// Shared machinery of the hardware component estimators.
//
// Each ASIC mapped to this backend holds a synthesized FSMD netlist and its
// gate program, both shared with every estimator of the same design in the
// process, plus its own gate simulator over them and (in batch mode) a
// buffered vector trace. The subclasses differ only in how one reaction is
// priced, and each prices through exactly one override of price():
// HwGateEstimator steps the event-driven gate-level simulator,
// HwRtlEstimator walks the executed path's operator activations at RT
// level, HwAnalyticalEstimator evaluates its calibrated activity model. The online cost(), the batch drain and the
// dist::Worker (which drains shipped batches and answers online requests
// through the same two entry points) all call that one override. Everything
// else (staging, register resynchronization after acceleration skips, batch
// buffering, the verify_lowlevel gate cross-check, and the per-unit offline
// flush jobs the master runs on its worker pool) is common and lives here.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/estimators/component_estimator.hpp"
#include "hw/gatesim.hpp"
#include "hw/reaction_cache.hpp"
#include "hwsyn/design.hpp"
#include "hwsyn/synth.hpp"
#include "util/slot_vector.hpp"

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

  /// `task`'s gate simulator, nullptr when this backend does not own `task`
  /// (introspection and tests).
  [[nodiscard]] const hw::GateSim* gate_sim(cfsm::CfsmId task) const;

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
  /// batch at once: every entry goes through the same price() in the same
  /// order. Used by the dist::Worker to evaluate shipped chunks eagerly,
  /// overlapping with the master's DE loop; serialize calls per unit like
  /// flush jobs.
  [[nodiscard]] FlushResult drain_batch(cfsm::CfsmId task, bool first);

 protected:
  struct BatchEntry {
    sim::SimTime time = 0;
    cfsm::ReactionInputs inputs;
    cfsm::PathId path = cfsm::kNoPath;  // kNoPath == reset transition
    /// Behavioral state before the reaction (the `pre` of price()).
    cfsm::CfsmState pre;
  };
  struct Unit {
    /// The process's netlist and gate program, shared with every estimator
    /// of the same design (hwsyn::shared_design).
    std::shared_ptr<const hwsyn::HwDesign> design;
    const hwsyn::HwImage& image() const { return design->image; }
    /// This estimator's simulator over the shared program.
    std::unique_ptr<hw::GateSim> sim;
    /// Reaction memoizer wrapping `sim`. One per unit — the parallel batch
    /// flush dispatches whole units, so no cache is ever shared between
    /// threads.
    std::unique_ptr<hw::ReactionCache> rcache;
    bool registers_dirty = false;  // gate sim skipped; state needs resync
    /// Buffered vectors of the run, in enqueue order. A pool: draining
    /// keeps the entries' storage, so enqueue() copies into buffers it
    /// already owns once the pool has grown to a run's batch size.
    SlotVector<BatchEntry> batch;
  };

  /// Price one reaction of `task`: the backend's single pricing path, for
  /// online transitions and batch entries alike. `trace` is the executed
  /// path and `pre` the behavioral state before the reaction. Batch drains
  /// run on pool workers, so this may only touch `unit`, `*gate_cycles`,
  /// atomic telemetry and the backend's immutable prepare()-time state.
  virtual Joules price(Unit& unit, cfsm::CfsmId task,
                       const cfsm::ReactionInputs& inputs,
                       const std::vector<cfsm::NodeId>& trace,
                       const cfsm::CfsmState& pre,
                       std::uint64_t* gate_cycles) = 0;
  [[nodiscard]] Unit& unit(cfsm::CfsmId task) {
    return *units_[static_cast<std::size_t>(task)];
  }

  /// Stage `inputs` into `u`'s gate simulator, evaluate the reaction (through
  /// the reaction cache, whose hits restore the simulator's post-step state
  /// exactly) and count one gate cycle.
  Joules gate_step(Unit& u, const cfsm::ReactionInputs& inputs,
                   std::uint64_t* gate_cycles);

  const cfsm::Network* net_ = nullptr;
  const CoEstimatorConfig* config_ = nullptr;
  const std::vector<cfsm::PathTable>* path_tables_ = nullptr;
  std::vector<cfsm::CfsmId> components_;
  std::vector<std::unique_ptr<Unit>> units_;  // per CfsmId
  /// Gate-simulator cycles evaluated online and by the separate baseline
  /// (flush cycles are returned per job and merged by the master).
  std::uint64_t gate_cycles_ = 0;

 private:
  /// verify_lowlevel: the gate simulator's emissions and registers after an
  /// online reaction must match the behavioral reaction.
  void verify_gate(Unit& u, const TransitionRequest& req) const;
  [[nodiscard]] FlushResult run_flush(Unit& u, cfsm::CfsmId task);
  [[nodiscard]] FlushResult drain_into(Unit& u, cfsm::CfsmId task, bool first);
  [[nodiscard]] hw::ReactionCacheConfig reaction_cache_config() const;
};

}  // namespace socpower::core
