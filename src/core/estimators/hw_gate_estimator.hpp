// Gate-level hardware power estimator: prices each applied input vector by
// stepping the event-driven gate simulator over the synthesized netlist
// (data-dependent switching energy). The accurate end of the paper's
// Section 3 accuracy/efficiency choice.
#pragma once

#include "core/estimators/hw_estimator.hpp"

namespace socpower::core {

class HwGateEstimator final : public HwEstimatorBase {
 public:
  [[nodiscard]] std::string_view name() const override { return "hw.gate"; }

 protected:
  Joules measure(Unit& unit, const TransitionRequest& req) override;
  Joules measure_flush(Unit& unit, cfsm::CfsmId task, const BatchEntry& entry,
                       std::uint64_t* gate_cycles) override;
};

}  // namespace socpower::core
