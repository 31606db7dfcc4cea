#include "core/estimators/hw_analytical_estimator.hpp"

#include <algorithm>
#include <cmath>

#include "telemetry/registry.hpp"

namespace socpower::core {

void HwAnalyticalEstimator::prepare(const EstimatorContext& ctx) {
  HwEstimatorBase::prepare(ctx);
  calib_.clear();
  calib_.resize(units_.size());
  const std::string prefix = "estimator." + std::string(name()) + ".";
  reactions_telem_ = &telemetry::registry().counter(prefix + "reactions");
  calib_telem_ = &telemetry::registry().counter(prefix + "calib_vectors");
  leakage_telem_ = &telemetry::registry().counter(prefix + "leakage_nj");
}

void HwAnalyticalEstimator::begin_run() {
  HwEstimatorBase::begin_run();
  calib_target_ = std::max(1u, config_->hw_analytical_calibration_vectors);
  const hw::AnalyticalLeakageParams lp{config_->hw_leakage_nw_per_gate,
                                       config_->hw_temperature_k,
                                       config_->hw_channel_length_nm};
  for (const cfsm::CfsmId task : components_) {
    UnitCalib& c = calib_[static_cast<std::size_t>(task)];
    c.tracker.reset();
    c.leakage_watts = hw::analytical_leakage_watts(
        unit(task).image.netlist->gate_count(), lp);
    c.leak_per_reaction =
        c.leakage_watts *
        config_->electrical.seconds(static_cast<double>(kHwReactionCycles));
    c.run_leakage = 0.0;
    // Keep the exported model's static power current with this run's knobs.
    if (c.fitted) c.model.leakage_watts = c.leakage_watts;
  }
}

Joules HwAnalyticalEstimator::price(Unit& unit, cfsm::CfsmId task,
                                    const cfsm::ReactionInputs& inputs,
                                    const cfsm::CfsmState& pre,
                                    std::uint64_t* gate_cycles) {
  UnitCalib& c = calib_[static_cast<std::size_t>(task)];
  const hw::ReactionActivity act =
      c.tracker.observe(unit.image.local_inputs, inputs, pre);
  Joules e;
  if (c.fitted) {
    e = c.model.predict(act);
    reactions_telem_->add();
  } else {
    // Calibration phase: the gate simulator is the ground truth, and its
    // exact energy is also what this reaction reports — the analytical
    // approximation only ever replaces reactions *after* the fit.
    hwsyn::stage_hw_reaction(*unit.sim, unit.image, inputs);
    e = step_unit(unit).energy;
    ++*gate_cycles;
    c.acc.add(act, e);
    calib_telem_->add();
    if (c.acc.count() >= calib_target_) {
      c.model = c.acc.fit(task);
      c.model.leakage_watts = c.leakage_watts;
      c.fitted = true;
    }
  }
  c.run_leakage += c.leak_per_reaction;
  return e + c.leak_per_reaction;
}

Joules HwAnalyticalEstimator::measure(Unit& unit, const TransitionRequest& req) {
  return price(unit, req.task, *req.inputs, *req.pre_state, &gate_cycles_);
}

Joules HwAnalyticalEstimator::measure_flush(Unit& unit, cfsm::CfsmId task,
                                            const BatchEntry& entry,
                                            std::uint64_t* gate_cycles) {
  return price(unit, task, entry.inputs, entry.pre, gate_cycles);
}

void HwAnalyticalEstimator::stats(RunResults& res) const {
  HwEstimatorBase::stats(res);
  if (res.process_leakage.size() < units_.size())
    res.process_leakage.resize(units_.size(), 0.0);
  Joules total = 0.0;
  for (const cfsm::CfsmId task : components_) {
    const UnitCalib& c = calib_[static_cast<std::size_t>(task)];
    res.process_leakage[static_cast<std::size_t>(task)] += c.run_leakage;
    total += c.run_leakage;
  }
  res.leakage_energy += total;
  if (total > 0.0) leakage_telem_->add(std::llround(total * 1e9));
}

hw::AnalyticalModel HwAnalyticalEstimator::model() const {
  hw::AnalyticalModel m;
  for (const cfsm::CfsmId task : components_) {
    const UnitCalib& c = calib_[static_cast<std::size_t>(task)];
    if (c.fitted)
      m.units.push_back(c.model);
    else if (c.acc.count() > 0)
      m.pending.push_back({task, c.acc.raw()});
  }
  std::sort(m.units.begin(), m.units.end(),
            [](const hw::AnalyticalUnitModel& a,
               const hw::AnalyticalUnitModel& b) { return a.task < b.task; });
  std::sort(m.pending.begin(), m.pending.end(),
            [](const hw::AnalyticalCalibrationState& a,
               const hw::AnalyticalCalibrationState& b) {
              return a.task < b.task;
            });
  return m;
}

void HwAnalyticalEstimator::set_model(const hw::AnalyticalModel& model) {
  auto owned = [&](cfsm::CfsmId task) {
    const auto idx = static_cast<std::size_t>(task);
    return task >= 0 && idx < units_.size() && units_[idx] != nullptr;
  };
  for (const hw::AnalyticalUnitModel& um : model.units) {
    if (!owned(um.task)) continue;
    UnitCalib& c = calib_[static_cast<std::size_t>(um.task)];
    c.model = um;
    c.fitted = true;
  }
  // Mid-calibration units resume their sample stream where the donor
  // stopped — a restored session stays bit-identical to the uninterrupted
  // one even when no unit has fitted yet.
  for (const hw::AnalyticalCalibrationState& cs : model.pending) {
    if (!owned(cs.task)) continue;
    UnitCalib& c = calib_[static_cast<std::size_t>(cs.task)];
    if (c.fitted) continue;
    c.acc = hw::CalibrationAccumulator::from_raw(cs.moments);
  }
}

BackendWarmState HwAnalyticalEstimator::export_warm_state() const {
  BackendWarmState state = HwEstimatorBase::export_warm_state();
  state.analytical = model();
  return state;
}

void HwAnalyticalEstimator::import_warm_state(const BackendWarmState& state) {
  HwEstimatorBase::import_warm_state(state);
  set_model(state.analytical);
}

}  // namespace socpower::core
