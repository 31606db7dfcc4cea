// Analytical hardware power estimator: the cheap end of the HW
// accuracy/efficiency spectrum, one tier below RT level. Each reaction is
// priced from per-unit effective-capacitance × activity terms plus a
// temperature-dependent leakage term (hw/analytical.hpp), with the
// coefficients auto-calibrated against the gate-level simulator: the first
// hw_analytical_calibration_vectors reactions of each unit replay through
// GateSim (reaction cache on) while (activity, exact energy) samples
// accumulate; once the target is reached the unit's model is
// least-squares-fitted and every later reaction costs four multiply-adds.
// The fitted AnalyticalModel is serializable — it rides BackendWarmState
// through the dist wire and the serve checkpoint, so warm sessions (and the
// explorer's analytical prefilter) skip recalibration entirely.
#pragma once

#include "core/estimators/hw_estimator.hpp"
#include "hw/analytical.hpp"

namespace socpower::core {

class HwAnalyticalEstimator final : public HwEstimatorBase {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "hw.analytical";
  }

  void prepare(const EstimatorContext& ctx) override;
  void begin_run() override;
  void stats(RunResults& res) const override;
  [[nodiscard]] BackendWarmState export_warm_state() const override;
  void import_warm_state(const BackendWarmState& state) override;

  /// The calibrated per-unit models fitted so far (units still calibrating
  /// are absent), in canonical task order — exactly what the checkpoint
  /// carries.
  [[nodiscard]] hw::AnalyticalModel model() const;
  /// Install previously calibrated models. Units this backend does not own
  /// are ignored; installed units skip the gate-level calibration phase.
  void set_model(const hw::AnalyticalModel& model);

 protected:
  /// Touches only `unit`'s own calibration state and atomic telemetry
  /// counters, as the base-class contract asks of batch drains.
  Joules price(Unit& unit, cfsm::CfsmId task,
               const cfsm::ReactionInputs& inputs,
               const std::vector<cfsm::NodeId>& trace,
               const cfsm::CfsmState& pre,
               std::uint64_t* gate_cycles) override;

 private:
  struct UnitCalib {
    hw::CalibrationAccumulator acc;
    hw::ActivityTracker tracker;
    hw::AnalyticalUnitModel model;
    bool fitted = false;
    double leakage_watts = 0.0;     // at hw::AnalyticalLeakageParams{}
    Joules leak_per_reaction = 0.0; // leakage_watts × reaction latency
    Joules run_leakage = 0.0;       // static energy billed this run
  };

  std::vector<UnitCalib> calib_;  // per CfsmId, parallel to units_
  unsigned calib_target_ = 1;

  telemetry::Counter* reactions_telem_ = nullptr;
  telemetry::Counter* calib_telem_ = nullptr;
  telemetry::Counter* leakage_telem_ = nullptr;
};

}  // namespace socpower::core
