// Software synthesis tests: macro-op streams, code generation, and — most
// importantly — the property that compiled SLITE code running on the ISS
// computes exactly what the behavioral model computes (same variable
// updates, same emissions) over randomized s-graphs and inputs.
#include <gtest/gtest.h>

#include <vector>

#include "cfsm/cfsm.hpp"
#include "iss/iss.hpp"
#include "iss/power_model.hpp"
#include "swsyn/codegen.hpp"
#include "swsyn/macro_op.hpp"
#include "swsyn/rtos.hpp"
#include "util/rng.hpp"

namespace socpower::swsyn {
namespace {

using cfsm::ExprOp;

struct TestCfsm {
  cfsm::Network net;
  cfsm::Cfsm& c;
  cfsm::EventId trig;
  cfsm::EventId out;

  TestCfsm()
      : c(net.add_cfsm("t")), trig(net.declare_event("TRIG")),
        out(net.declare_event("OUT")) {
    c.add_input(trig);
    c.add_output(out);
  }
};

/// Runs both the interpreter and the compiled image; checks equivalence.
void check_equivalence(const cfsm::Cfsm& c, const cfsm::ReactionInputs& in,
                       cfsm::CfsmState state) {
  const SwImage img = compile_cfsm(c, /*code=*/0x20, /*data=*/0x800);
  iss::Iss iss(iss::InstructionPowerModel::sparclite(), {});
  iss.load_program(img.code, img.code_base_word);

  cfsm::CfsmState interp = state;
  const cfsm::Reaction reaction = c.react(in, interp);

  stage_reaction(iss, img, in, state);
  iss.reset_cpu();
  iss.set_pc(img.code_base_word);
  const iss::RunResult r = iss.run();
  ASSERT_TRUE(r.halted);

  const auto emissions = read_emissions(iss, img);
  ASSERT_EQ(emissions.size(), reaction.emissions.size());
  for (std::size_t i = 0; i < emissions.size(); ++i) {
    EXPECT_EQ(emissions[i].event, reaction.emissions[i].event);
    EXPECT_EQ(emissions[i].value, reaction.emissions[i].value);
  }
  cfsm::CfsmState compiled = state;
  read_vars(iss, img, compiled);
  EXPECT_EQ(compiled.vars, interp.vars);
}

TEST(SwSyn, StraightLineAssignments) {
  TestCfsm t;
  auto& b = t.c;
  const auto v0 = b.add_var("a", 3);
  const auto v1 = b.add_var("b", 4);
  auto& g = b.graph();
  auto& a = b.arena();
  const auto end = g.add_end();
  const auto n2 = g.add_assign(
      v1, a.binary(ExprOp::kMul, a.variable(v0), a.variable(v1)), end);
  g.set_root(g.add_assign(
      v0, a.binary(ExprOp::kAdd, a.variable(v0), a.constant(10)), n2));
  cfsm::ReactionInputs in;
  in.set(t.trig, 0);
  check_equivalence(b, in, b.make_state());
}

TEST(SwSyn, BranchesFollowData) {
  TestCfsm t;
  auto& b = t.c;
  const auto v = b.add_var("v");
  auto& g = b.graph();
  auto& a = b.arena();
  const auto end = g.add_end();
  const auto yes = g.add_assign(v, a.constant(111), end);
  const auto no = g.add_assign(v, a.constant(222), end);
  g.set_root(g.add_test(
      a.binary(ExprOp::kGt, a.event_value(t.trig), a.constant(5)), yes, no));
  for (const std::int32_t x : {0, 5, 6, -3}) {
    cfsm::ReactionInputs in;
    in.set(t.trig, x);
    check_equivalence(b, in, b.make_state());
  }
}

TEST(SwSyn, EmissionsInProgramOrder) {
  TestCfsm t;
  auto& b = t.c;
  auto& g = b.graph();
  auto& a = b.arena();
  const auto end = g.add_end();
  const auto e2 = g.add_emit(t.out, a.constant(2), end);
  g.set_root(g.add_emit(t.out, a.constant(1), e2));
  cfsm::ReactionInputs in;
  in.set(t.trig, 0);
  check_equivalence(b, in, b.make_state());
}

TEST(SwSyn, WideConstants) {
  TestCfsm t;
  auto& b = t.c;
  const auto v = b.add_var("v");
  auto& g = b.graph();
  auto& a = b.arena();
  g.set_root(g.add_assign(
      v, a.binary(ExprOp::kAdd, a.constant(0x12345678), a.constant(-70000)),
      g.add_end()));
  cfsm::ReactionInputs in;
  in.set(t.trig, 0);
  check_equivalence(b, in, b.make_state());
}

TEST(SwSyn, DeepExpressionSpills) {
  // Left-leaning and right-leaning trees exercise the temp-slot discipline.
  TestCfsm t;
  auto& b = t.c;
  const auto v = b.add_var("v");
  auto& g = b.graph();
  auto& a = b.arena();
  cfsm::ExprId left = a.constant(1);
  for (int i = 2; i <= 6; ++i)
    left = a.binary(ExprOp::kAdd, left, a.constant(i));
  cfsm::ExprId right = a.constant(1);
  for (int i = 2; i <= 6; ++i)
    right = a.binary(ExprOp::kMul, a.constant(i), right);
  g.set_root(g.add_assign(
      v, a.binary(ExprOp::kSub, left, right), g.add_end()));
  cfsm::ReactionInputs in;
  in.set(t.trig, 0);
  check_equivalence(b, in, b.make_state());
}

// Property sweep: every operator compiled and compared against the
// interpreter on a grid of operand values.
class OperatorLowering : public ::testing::TestWithParam<ExprOp> {};

TEST_P(OperatorLowering, MatchesInterpreter) {
  const ExprOp op = GetParam();
  const std::int32_t operands[] = {0, 1, -1, 7, -13, 255, 4096, -32768,
                                   0x7fffffff};
  for (const std::int32_t x : operands) {
    for (const std::int32_t y : operands) {
      TestCfsm t;
      auto& b = t.c;
      const auto v = b.add_var("v");
      auto& g = b.graph();
      auto& a = b.arena();
      cfsm::ExprId e;
      if (cfsm::expr_arity(op) == 1)
        e = a.unary(op, a.constant(x));
      else
        e = a.binary(op, a.constant(x), a.constant(y));
      g.set_root(g.add_assign(v, e, g.add_end()));
      cfsm::ReactionInputs in;
      in.set(t.trig, 0);
      check_equivalence(b, in, b.make_state());
      if (cfsm::expr_arity(op) == 1) break;  // y is irrelevant
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOperators, OperatorLowering,
    ::testing::Values(ExprOp::kAdd, ExprOp::kSub, ExprOp::kMul, ExprOp::kDiv,
                      ExprOp::kMod, ExprOp::kNeg, ExprOp::kBitAnd,
                      ExprOp::kBitOr, ExprOp::kBitXor, ExprOp::kBitNot,
                      ExprOp::kShl, ExprOp::kShr, ExprOp::kEq, ExprOp::kNe,
                      ExprOp::kLt, ExprOp::kLe, ExprOp::kGt, ExprOp::kGe,
                      ExprOp::kLogicAnd, ExprOp::kLogicOr, ExprOp::kLogicNot),
    [](const auto& info) {
      return std::string(cfsm::expr_op_name(info.param));
    });

TEST(SwSyn, RandomizedSgraphEquivalence) {
  // Random chains of tests/assigns/emits over random expressions; the
  // compiled code must track the interpreter for every stimulus.
  Rng rng(2024);
  for (int trial = 0; trial < 30; ++trial) {
    TestCfsm t;
    auto& b = t.c;
    auto& g = b.graph();
    auto& a = b.arena();
    const int n_vars = 3;
    for (int v = 0; v < n_vars; ++v)
      b.add_var(std::string("v").append(std::to_string(v)),
                static_cast<std::int32_t>(rng.range(-50, 50)));

    auto rand_expr = [&](auto&& self, int depth) -> cfsm::ExprId {
      if (depth == 0 || rng.chance(0.3)) {
        switch (rng.below(3)) {
          case 0: return a.constant(static_cast<std::int32_t>(rng.range(-100, 100)));
          case 1: return a.variable(static_cast<cfsm::VarId>(rng.below(n_vars)));
          default: return a.event_value(t.trig);
        }
      }
      static const ExprOp ops[] = {ExprOp::kAdd, ExprOp::kSub, ExprOp::kMul,
                                   ExprOp::kBitXor, ExprOp::kLt, ExprOp::kEq,
                                   ExprOp::kBitAnd};
      const ExprOp op = ops[rng.below(std::size(ops))];
      return a.binary(op, self(self, depth - 1), self(self, depth - 1));
    };

    // Build a random DAG bottom-up.
    std::vector<cfsm::NodeId> frontier{g.add_end()};
    for (int i = 0; i < 8; ++i) {
      const cfsm::NodeId next =
          frontier[rng.below(frontier.size())];
      switch (rng.below(3)) {
        case 0:
          frontier.push_back(g.add_assign(
              static_cast<cfsm::VarId>(rng.below(n_vars)),
              rand_expr(rand_expr, 2), next));
          break;
        case 1:
          frontier.push_back(
              g.add_emit(t.out, rand_expr(rand_expr, 2), next));
          break;
        default: {
          const cfsm::NodeId other =
              frontier[rng.below(frontier.size())];
          frontier.push_back(
              g.add_test(rand_expr(rand_expr, 2), next, other));
          break;
        }
      }
    }
    g.set_root(frontier.back());
    ASSERT_EQ(g.validate(), "");

    cfsm::CfsmState st = b.make_state();
    for (int step = 0; step < 5; ++step) {
      cfsm::ReactionInputs in;
      in.set(t.trig, static_cast<std::int32_t>(rng.range(-1000, 1000)));
      check_equivalence(b, in, st);
      b.react(in, st);  // advance the reference state
    }
  }
}

TEST(SwSyn, MacroStreamMatchesTrace) {
  TestCfsm t;
  auto& b = t.c;
  const auto v = b.add_var("v");
  auto& g = b.graph();
  auto& a = b.arena();
  const auto end = g.add_end();
  const auto yes = g.add_emit(t.out, a.variable(v), end);
  const auto no = g.add_assign(v, a.constant(1), end);
  g.set_root(g.add_test(
      a.binary(ExprOp::kEq, a.variable(v), a.constant(0)), yes, no));

  cfsm::CfsmState st = b.make_state();
  cfsm::ReactionInputs in;
  in.set(t.trig, 0);
  const cfsm::Reaction r1 = b.react(in, st);  // v==0: taken
  const auto s1 = macro_stream_for_trace(b, r1.trace);
  // RVAR CONST EQ TIVART | RVAR AEMIT | TEND
  const std::vector<MacroOp> expect1 = {
      MacroOp::kRVar, MacroOp::kConst, MacroOp::kEq, MacroOp::kTivarT,
      MacroOp::kRVar, MacroOp::kAemit, MacroOp::kTend};
  EXPECT_EQ(s1, expect1);

  st.vars[0] = 5;
  const cfsm::Reaction r2 = b.react(in, st);  // v!=0: not taken
  const auto s2 = macro_stream_for_trace(b, r2.trace);
  const std::vector<MacroOp> expect2 = {
      MacroOp::kRVar, MacroOp::kConst, MacroOp::kEq, MacroOp::kTivarF,
      MacroOp::kConst, MacroOp::kAvv, MacroOp::kTend};
  EXPECT_EQ(s2, expect2);
}

TEST(SwSyn, MacroOpNamesRoundTrip) {
  for (std::size_t i = 0; i < kNumMacroOps; ++i) {
    const auto op = static_cast<MacroOp>(i);
    EXPECT_EQ(macro_op_from_name(macro_op_name(op)), op);
  }
  EXPECT_EQ(macro_op_from_name("NOSUCH"), MacroOp::kMacroOpCount);
}

TEST(SwSyn, AddressTraceCoversPrologueAndPath) {
  TestCfsm t;
  auto& b = t.c;
  const auto v = b.add_var("v");
  auto& g = b.graph();
  g.set_root(g.add_assign(v, b.arena().constant(1), g.add_end()));
  const SwImage img = compile_cfsm(b, 0x40, 0x800);
  cfsm::CfsmState st = b.make_state();
  cfsm::ReactionInputs in;
  in.set(t.trig, 0);
  const cfsm::Reaction r = b.react(in, st);
  const auto trace = address_trace(img, r.trace);
  ASSERT_FALSE(trace.empty());
  EXPECT_EQ(trace.front(), 0x40u * iss::kInstrBytes);
  // Addresses are word-aligned and within the image.
  for (const auto addr : trace) {
    EXPECT_EQ(addr % iss::kInstrBytes, 0u);
    EXPECT_LT(addr / iss::kInstrBytes, img.code_base_word + img.code.size());
  }
}

TEST(SwSyn, CharacterizationTemplatesHalt) {
  iss::Iss iss(iss::InstructionPowerModel::sparclite(), {});
  for (std::size_t i = 0; i < kNumMacroOps; ++i) {
    const auto prog = characterization_template(static_cast<MacroOp>(i));
    iss.load_program(prog, 0x100);
    iss.reset_cpu();
    iss.set_pc(0x100);
    const auto r = iss.run(10'000);
    EXPECT_TRUE(r.halted) << macro_op_name(static_cast<MacroOp>(i));
  }
}

TEST(Rtos, PriorityPicksHighest) {
  RtosModel rtos;
  rtos.set_priority(0, 1);
  rtos.set_priority(1, 5);
  rtos.set_priority(2, 3);
  EXPECT_EQ(rtos.pick_next({0, 1, 2}), 1u);
  EXPECT_EQ(rtos.pick_next({0, 2}), 1u);
  EXPECT_EQ(rtos.pick_next({0}), 0u);
}

TEST(Rtos, FifoWithinPriorityLevel) {
  RtosModel rtos;
  rtos.set_priority(3, 2);
  rtos.set_priority(4, 2);
  EXPECT_EQ(rtos.pick_next({4, 3}), 0u);  // first in queue order wins ties
}

TEST(Rtos, DispatchEnergyPositive) {
  RtosModel rtos;
  EXPECT_GT(rtos.dispatch_energy(), 0.0);
  EXPECT_GT(rtos.dispatch_cycles(), 0u);
}

}  // namespace
}  // namespace socpower::swsyn
