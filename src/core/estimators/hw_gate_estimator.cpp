#include "core/estimators/hw_gate_estimator.hpp"

#include <cassert>

#include "telemetry/registry.hpp"

namespace socpower::core {

Joules HwGateEstimator::measure(Unit& unit, const TransitionRequest& req) {
  static telemetry::Counter& cycles =
      telemetry::registry().counter("estimator.hw.gate.cycles");
  hwsyn::stage_hw_reaction(*unit.sim, unit.image, *req.inputs);
  // A cache hit replays the reaction with the simulator's post-step state
  // restored exactly, so the verify_lowlevel cross-checks below read the
  // same net values they would after a real step().
  const hw::CycleResult r = step_unit(unit);
  ++gate_cycles_;
  cycles.add();
  if (config_->verify_lowlevel) {
    const auto hw_em = effective_emissions(
        hwsyn::read_hw_emissions(*unit.sim, unit.image));
    auto beh_em = effective_emissions(req.reaction->emissions);
    assert(hw_em.size() == beh_em.size() &&
           "gate-sim/behavioral emission mismatch");
    for (std::size_t i = 0; i < hw_em.size(); ++i) {
      assert(hw_em[i].event == beh_em[i].event);
      assert(hw_em[i].value == beh_em[i].value);
    }
    const cfsm::CfsmState& st = *req.post_state;
    for (std::size_t v = 0; v < st.vars.size(); ++v)
      assert(hwsyn::read_hw_var(*unit.sim, unit.image,
                                static_cast<cfsm::VarId>(v)) == st.vars[v]);
  }
  return r.energy;
}

Joules HwGateEstimator::measure_flush(Unit& unit, cfsm::CfsmId,
                                      const BatchEntry& entry,
                                      std::uint64_t* gate_cycles) {
  hwsyn::stage_hw_reaction(*unit.sim, unit.image, entry.inputs);
  const Joules e = step_unit(unit).energy;
  ++*gate_cycles;
  return e;
}

}  // namespace socpower::core
