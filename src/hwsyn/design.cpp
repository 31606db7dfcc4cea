#include "hwsyn/design.hpp"

#include <string>

#include "util/shared_builds.hpp"

namespace socpower::hwsyn {

namespace {

std::string design_key(const cfsm::Cfsm& c, unsigned width,
                       const hw::TechParams& tech,
                       const ElectricalParams& electrical) {
  // Both parameter sets are plain doubles; a new field must join the key.
  static_assert(sizeof(hw::TechParams) ==
                (hw::kNumGateTypes + 4) * sizeof(double));
  static_assert(sizeof(ElectricalParams) == 2 * sizeof(double));
  util::KeyBytes k;
  k.str(c.name());
  k.seq(c.inputs());
  k.seq(c.sampled_inputs());
  k.seq(c.outputs());
  k.pod(c.reset_event().has_value());
  k.pod(c.reset_event().value_or(-1));
  k.pod(c.vars().size());
  for (const cfsm::VarDecl& v : c.vars()) {
    k.str(v.name);
    k.pod(v.init);
  }
  const cfsm::ExprArena& arena = c.arena();
  k.pod(arena.size());
  for (std::size_t i = 0; i < arena.size(); ++i) {
    const cfsm::ExprNode& n = arena.at(static_cast<cfsm::ExprId>(i));
    k.pod(n.op);
    k.pod(n.value);
    k.pod(n.lhs);
    k.pod(n.rhs);
  }
  const cfsm::SGraph& g = c.graph();
  k.pod(g.node_count());
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    const cfsm::SNode& n = g.node(static_cast<cfsm::NodeId>(i));
    k.pod(n.kind);
    k.pod(n.expr);
    k.pod(n.var);
    k.pod(n.event);
    k.pod(n.next);
    k.pod(n.next_else);
  }
  k.pod(g.root());
  k.pod(width);
  k.pod(tech);
  k.pod(electrical);
  return std::move(k.bytes);
}

util::SharedBuilds<HwDesign>& designs() {
  static util::SharedBuilds<HwDesign> table("hw.design");
  return table;
}

}  // namespace

std::shared_ptr<const HwDesign> shared_design(const cfsm::Cfsm& cfsm,
                                              ElectricalParams electrical) {
  constexpr unsigned kWidth = 32;
  const hw::TechParams tech = hw::TechParams::generic_250nm();
  return designs().get(design_key(cfsm, kWidth, tech, electrical), [&] {
    return std::make_shared<const HwDesign>(synthesize_cfsm(cfsm, kWidth),
                                            tech, electrical);
  });
}

std::unique_ptr<hw::GateSim> make_gate_sim(
    std::shared_ptr<const HwDesign> design) {
  const hw::GateProgram* program = &design->program;
  return std::make_unique<hw::GateSim>(
      std::shared_ptr<const hw::GateProgram>(std::move(design), program));
}

std::size_t shared_design_count() { return designs().size(); }

}  // namespace socpower::hwsyn
