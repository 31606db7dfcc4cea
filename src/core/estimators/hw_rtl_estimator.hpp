// RT-level hardware power estimator: prices each transition by walking the
// executed path's operator activations in the RT-level power model — no
// gate evaluation, and nothing to functionally verify against. The fast end
// of the paper's Section 3 accuracy/efficiency choice.
#pragma once

#include <memory>

#include "core/estimators/hw_estimator.hpp"
#include "hwsyn/rtl_power.hpp"

namespace socpower::core {

class HwRtlEstimator final : public HwEstimatorBase {
 public:
  [[nodiscard]] std::string_view name() const override { return "hw.rtl"; }

  void prepare(const EstimatorContext& ctx) override;

 protected:
  Joules price(Unit& unit, cfsm::CfsmId task,
               const cfsm::ReactionInputs& inputs,
               const std::vector<cfsm::NodeId>& trace,
               const cfsm::CfsmState& pre,
               std::uint64_t* gate_cycles) override;

 private:
  /// Shared by all units, including across concurrent flush jobs (the
  /// estimator is stateless per call).
  std::unique_ptr<hwsyn::RtlPowerEstimator> rtl_power_;
};

}  // namespace socpower::core
