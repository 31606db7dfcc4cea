#include "core/estimators/hw_gate_estimator.hpp"

#include "telemetry/registry.hpp"

namespace socpower::core {

Joules HwGateEstimator::price(Unit& unit, cfsm::CfsmId,
                              const cfsm::ReactionInputs& inputs,
                              const std::vector<cfsm::NodeId>&,
                              const cfsm::CfsmState&,
                              std::uint64_t* gate_cycles) {
  static telemetry::Counter& cycles =
      telemetry::registry().counter("estimator.hw.gate.cycles");
  cycles.add();
  return gate_step(unit, inputs, gate_cycles);
}

}  // namespace socpower::core
