// Hardware-synthesis edge cases: processes without variables or outputs,
// duplicate emissions of one event in a path, diamond-shaped DAGs with
// shared tails, reset interaction with the netlist state, and the operators
// the FSMD datapath cannot implement.
#include <gtest/gtest.h>

#include <string>

#include "cfsm/dsl.hpp"
#include "core/coestimator.hpp"
#include "hw/gatesim.hpp"
#include "hwsyn/synth.hpp"

namespace socpower::hwsyn {
namespace {

TEST(HwSynEdge, PureCombinationalProcess) {
  // No variables at all: just an input-to-output function.
  cfsm::Network net;
  const auto ok = cfsm::parse_network(R"(
    event IN, OUT;
    process comb { input IN; output OUT; emit OUT(val(IN) * 3 + 1); }
  )", net);
  ASSERT_TRUE(ok.ok()) << ok.error;
  const HwImage img = synthesize_cfsm(net.cfsm(0));
  EXPECT_EQ(img.netlist->dff_count(), 0u);
  hw::GateSim sim(img.netlist.get());
  cfsm::ReactionInputs in;
  in.set(net.event_id("IN"), 13);
  stage_hw_reaction(sim, img, in);
  sim.step();
  const auto ems = read_hw_emissions(sim, img);
  ASSERT_EQ(ems.size(), 1u);
  EXPECT_EQ(ems[0].value, 40);
}

/// Parses a one-process network whose output is `expr` of input IN and the
/// variable `v`, then synthesizes that process.
void synthesize_expr(const std::string& expr) {
  cfsm::Network net;
  const auto ok = cfsm::parse_network(
      "event IN, OUT;\n"
      "process alu { input IN; output OUT; var v = 3;\n"
      "  emit OUT(" + expr + "); v = v + val(IN); }",
      net);
  ASSERT_TRUE(ok.ok()) << ok.error;
  (void)synthesize_cfsm(net.cfsm(0));
}

TEST(HwSynEdge, UnsynthesizableOperatorsAbortInEveryBuild) {
  // Division, modulo and variable shift amounts have no datapath in the
  // FSMD. Synthesis must refuse them by name, also under NDEBUG, rather
  // than emit a netlist that computes another function than the CFSM.
  EXPECT_DEATH(synthesize_expr("val(IN) / v"),
               "process \"alu\" cannot be mapped to hardware: operator '/'");
  EXPECT_DEATH(synthesize_expr("val(IN) % v"),
               "process \"alu\" cannot be mapped to hardware: operator '%'");
  EXPECT_DEATH(synthesize_expr("val(IN) << v"),
               "process \"alu\" cannot be mapped to hardware: the shift "
               "amount of '<<' is not a constant");
  EXPECT_DEATH(synthesize_expr("val(IN) >> v"),
               "the shift amount of '>>' is not a constant");
  // Constant shift amounts are resolved structurally.
  synthesize_expr("val(IN) << 2");
}

TEST(HwSynEdge, ProcessWithNoOutputs) {
  cfsm::Network net;
  const auto ok = cfsm::parse_network(R"(
    event IN;
    process sink { input IN; var total = 0; total = total + val(IN); }
  )", net);
  ASSERT_TRUE(ok.ok()) << ok.error;
  const HwImage img = synthesize_cfsm(net.cfsm(0));
  hw::GateSim sim(img.netlist.get());
  for (const std::int32_t v : {5, -3, 100}) {
    cfsm::ReactionInputs in;
    in.set(net.event_id("IN"), v);
    stage_hw_reaction(sim, img, in);
    sim.step();
  }
  EXPECT_EQ(read_hw_var(sim, img, 0), 102);
  EXPECT_TRUE(read_hw_emissions(sim, img).empty());
}

TEST(HwSynEdge, SameEventEmittedTwiceLastValueWins) {
  // Both the behavioral model (at the receiver) and the synthesized output
  // port resolve duplicate same-instant emissions to the last value.
  cfsm::Network net;
  const auto trig = net.declare_event("T");
  const auto out = net.declare_event("OUT");
  cfsm::Cfsm& c = net.add_cfsm("p");
  c.add_input(trig);
  c.add_output(out);
  auto& g = c.graph();
  auto& a = c.arena();
  g.set_root(g.add_emit(out, a.constant(1),
                        g.add_emit(out, a.constant(2), g.add_end())));
  const HwImage img = synthesize_cfsm(c);
  hw::GateSim sim(img.netlist.get());
  cfsm::ReactionInputs in;
  in.set(trig, 0);
  stage_hw_reaction(sim, img, in);
  sim.step();
  const auto ems = read_hw_emissions(sim, img);
  ASSERT_EQ(ems.size(), 1u);
  EXPECT_EQ(ems[0].value, 2);
}

TEST(HwSynEdge, DiamondDagSharedTailMergesCorrectly) {
  // Two branches write different values, converge, and the shared tail adds
  // to whichever value flowed in.
  cfsm::Network net;
  const auto trig = net.declare_event("T");
  cfsm::Cfsm& c = net.add_cfsm("p");
  c.add_input(trig);
  const auto v = c.add_var("v");
  auto& g = c.graph();
  auto& a = c.arena();
  using Op = cfsm::ExprOp;
  const auto end = g.add_end();
  const auto shared = g.add_assign(
      v, a.binary(Op::kAdd, a.variable(v), a.constant(100)), end);
  const auto left = g.add_assign(v, a.constant(1), shared);
  const auto right = g.add_assign(v, a.constant(2), shared);
  g.set_root(g.add_test(
      a.binary(Op::kGt, a.event_value(trig), a.constant(0)), left, right));

  const HwImage img = synthesize_cfsm(c);
  hw::GateSim sim(img.netlist.get());
  cfsm::ReactionInputs pos, neg;
  pos.set(trig, 5);
  neg.set(trig, -5);
  stage_hw_reaction(sim, img, pos);
  sim.step();
  EXPECT_EQ(read_hw_var(sim, img, 0), 101);
  stage_hw_reaction(sim, img, neg);
  sim.step();
  EXPECT_EQ(read_hw_var(sim, img, 0), 102);
}

TEST(HwSynEdge, ResetRestoresRegistersMidRun) {
  cfsm::Network net;
  const auto ok = cfsm::parse_network(R"(
    event GO, RST;
    process acc { input GO; reset RST; var total = 10; total = total + 1; }
  )", net);
  ASSERT_TRUE(ok.ok()) << ok.error;
  core::CoEstimatorConfig cfg;
  cfg.verify_lowlevel = true;
  core::CoEstimator est(&net, cfg);
  est.map_hw(net.cfsm_id("acc"));
  est.prepare();
  sim::Stimulus stim;
  stim.add(1, net.event_id("GO"));
  stim.add(2, net.event_id("GO"));
  stim.add(3, net.event_id("RST"));
  stim.add(4, net.event_id("GO"));
  est.run(stim);
  // 10 -> 11 -> 12 -> reset to 10 -> 11.
  EXPECT_EQ(est.process_state(net.cfsm_id("acc")).vars[0], 11);
}

TEST(HwSynEdge, WideConstantInHardwarePath) {
  cfsm::Network net;
  const auto ok = cfsm::parse_network(R"(
    event T, OUT;
    process p { input T; output OUT; emit OUT(0x12345678 ^ val(T)); }
  )", net);
  ASSERT_TRUE(ok.ok()) << ok.error;
  const HwImage img = synthesize_cfsm(net.cfsm(0));
  hw::GateSim sim(img.netlist.get());
  cfsm::ReactionInputs in;
  in.set(net.event_id("T"), 0x0F0F0F0F);
  stage_hw_reaction(sim, img, in);
  sim.step();
  EXPECT_EQ(read_hw_emissions(sim, img)[0].value,
            0x12345678 ^ 0x0F0F0F0F);
}

}  // namespace
}  // namespace socpower::hwsyn
