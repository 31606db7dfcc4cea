#include "core/estimators/hw_rtl_estimator.hpp"

#include "telemetry/registry.hpp"

namespace socpower::core {

void HwRtlEstimator::prepare(const EstimatorContext& ctx) {
  HwEstimatorBase::prepare(ctx);
  // The netlist + gate simulator built by the base still back the reset /
  // register-resync / separate-baseline paths; only transition pricing is
  // RT-level.
  hwsyn::RtlPowerConfig rp;
  rp.electrical = config_->electrical;
  rtl_power_ = std::make_unique<hwsyn::RtlPowerEstimator>(rp);
}

Joules HwRtlEstimator::price(Unit&, cfsm::CfsmId task,
                             const cfsm::ReactionInputs& inputs,
                             const std::vector<cfsm::NodeId>& trace,
                             const cfsm::CfsmState&, std::uint64_t*) {
  static telemetry::Counter& reactions =
      telemetry::registry().counter("estimator.hw.rtl.reactions");
  reactions.add();
  return rtl_power_->estimate_reaction(net_->cfsm(task), trace, inputs);
}

}  // namespace socpower::core
