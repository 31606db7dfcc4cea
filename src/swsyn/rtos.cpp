#include "swsyn/rtos.hpp"

#include <cassert>

namespace socpower::swsyn {

RtosModel::RtosModel(RtosConfig config, ElectricalParams params)
    : config_(config), params_(params) {}

void RtosModel::set_priority(cfsm::CfsmId task, int priority) {
  assert(task >= 0);
  if (static_cast<std::size_t>(task) >= priorities_.size())
    priorities_.resize(static_cast<std::size_t>(task) + 1, 0);
  priorities_[static_cast<std::size_t>(task)] = priority;
}

int RtosModel::priority(cfsm::CfsmId task) const {
  if (task < 0 || static_cast<std::size_t>(task) >= priorities_.size())
    return 0;
  return priorities_[static_cast<std::size_t>(task)];
}

Joules RtosModel::dispatch_energy() const {
  return config_.dispatch_current_ma * 1e-3 * params_.vdd_volts *
         static_cast<double>(config_.dispatch_cycles) / params_.clock_hz;
}

}  // namespace socpower::swsyn
