// Hardware synthesis tests: word-level RTL operator correctness against the
// scalar reference semantics (property sweeps), and full s-graph -> netlist
// functional equivalence with the behavioral model on randomized inputs.
#include <gtest/gtest.h>

#include "cfsm/cfsm.hpp"
#include "hw/gatesim.hpp"
#include "hwsyn/rtl.hpp"
#include "hwsyn/synth.hpp"
#include "util/rng.hpp"

namespace socpower::hwsyn {
namespace {

using cfsm::ExprOp;

/// Evaluates a two-input RTL operator circuit for concrete values.
template <typename BuildFn>
std::uint32_t eval_rtl(BuildFn&& build, std::uint32_t x, std::uint32_t y,
                       unsigned width) {
  hw::Netlist nl;
  RtlBuilder rtl(&nl);
  const Word a = rtl.input_word("a", width);
  const Word b = rtl.input_word("b", width);
  const Word out = build(rtl, a, b);
  for (const auto n : out) nl.mark_output(n, "o");
  EXPECT_EQ(nl.validate(), "");
  hw::GateSim sim(&nl);
  sim.set_input_word(0, x, width);
  sim.set_input_word(width, y, width);
  sim.step();
  return sim.read_word(0, static_cast<unsigned>(out.size()));
}

TEST(Rtl, AdderMatchesReference) {
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const auto x = static_cast<std::uint32_t>(rng.next());
    const auto y = static_cast<std::uint32_t>(rng.next());
    const auto got = eval_rtl(
        [](RtlBuilder& r, const Word& a, const Word& b) { return r.add(a, b); },
        x, y, 32);
    EXPECT_EQ(got, x + y);
  }
}

TEST(Rtl, SubtractorMatchesReference) {
  Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    const auto x = static_cast<std::uint32_t>(rng.next());
    const auto y = static_cast<std::uint32_t>(rng.next());
    const auto got = eval_rtl(
        [](RtlBuilder& r, const Word& a, const Word& b) { return r.sub(a, b); },
        x, y, 32);
    EXPECT_EQ(got, x - y);
  }
}

TEST(Rtl, MultiplierMatchesReferenceNarrow) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    const auto x = static_cast<std::uint32_t>(rng.below(1 << 16));
    const auto y = static_cast<std::uint32_t>(rng.below(1 << 16));
    const auto got = eval_rtl(
        [](RtlBuilder& r, const Word& a, const Word& b) { return r.mul(a, b); },
        x, y, 16);
    EXPECT_EQ(got, (x * y) & 0xFFFFu);
  }
}

TEST(Rtl, ComparatorsMatchReference) {
  Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    const auto x = static_cast<std::uint32_t>(rng.next());
    const auto y = rng.chance(0.2) ? x : static_cast<std::uint32_t>(rng.next());
    const auto sx = static_cast<std::int32_t>(x);
    const auto sy = static_cast<std::int32_t>(y);
    EXPECT_EQ(eval_rtl(
                  [](RtlBuilder& r, const Word& a, const Word& b) {
                    return Word{r.eq(a, b)};
                  },
                  x, y, 32),
              x == y ? 1u : 0u);
    EXPECT_EQ(eval_rtl(
                  [](RtlBuilder& r, const Word& a, const Word& b) {
                    return Word{r.lt_unsigned(a, b)};
                  },
                  x, y, 32),
              x < y ? 1u : 0u);
    EXPECT_EQ(eval_rtl(
                  [](RtlBuilder& r, const Word& a, const Word& b) {
                    return Word{r.lt_signed(a, b)};
                  },
                  x, y, 32),
              sx < sy ? 1u : 0u);
  }
}

TEST(Rtl, ShiftsAndNegation) {
  const std::uint32_t x = 0x80000001u;
  EXPECT_EQ(eval_rtl([](RtlBuilder& r, const Word& a,
                        const Word&) { return r.shl_const(a, 4); },
                     x, 0, 32),
            x << 4);
  EXPECT_EQ(eval_rtl([](RtlBuilder& r, const Word& a,
                        const Word&) { return r.shr_arith_const(a, 4); },
                     x, 0, 32),
            static_cast<std::uint32_t>(static_cast<std::int32_t>(x) >> 4));
  EXPECT_EQ(eval_rtl([](RtlBuilder& r, const Word& a,
                        const Word&) { return r.neg(a); },
                     17, 0, 32),
            static_cast<std::uint32_t>(-17));
}

TEST(Rtl, MuxSelectsOperand) {
  hw::Netlist nl;
  RtlBuilder rtl(&nl);
  const Word a = rtl.constant(0xAAAA, 16);
  const Word b = rtl.constant(0x5555, 16);
  const NetId sel = nl.add_primary_input("sel");
  const Word out = rtl.mux(sel, a, b);
  for (const auto n : out) nl.mark_output(n, "o");
  hw::GateSim sim(&nl);
  sim.set_input(0, true);
  sim.step();
  EXPECT_EQ(sim.read_word(0, 16), 0xAAAAu);
  sim.set_input(0, false);
  sim.step();
  EXPECT_EQ(sim.read_word(0, 16), 0x5555u);
}

// ---------------------------------------------------------------------------
// Full-CFSM synthesis equivalence.

struct TestCfsm {
  cfsm::Network net;
  cfsm::Cfsm& c;
  cfsm::EventId trig;
  cfsm::EventId aux;
  cfsm::EventId out;

  TestCfsm()
      : c(net.add_cfsm("t")), trig(net.declare_event("TRIG")),
        aux(net.declare_event("AUX")), out(net.declare_event("OUT")) {
    c.add_input(trig);
    c.add_input(aux);
    c.add_output(out);
  }
};

/// Steps the synthesized netlist alongside the interpreter for a sequence of
/// stimuli and checks variables + effective emissions after every reaction.
void check_hw_equivalence(TestCfsm& t,
                          const std::vector<cfsm::ReactionInputs>& seq) {
  const HwImage img = synthesize_cfsm(t.c);
  hw::GateSim sim(img.netlist.get());
  cfsm::CfsmState st = t.c.make_state();
  for (const auto& in : seq) {
    const cfsm::Reaction r = t.c.react(in, st);
    stage_hw_reaction(sim, img, in);
    sim.step();
    for (std::size_t v = 0; v < st.vars.size(); ++v)
      EXPECT_EQ(read_hw_var(sim, img, static_cast<cfsm::VarId>(v)),
                st.vars[v]);
    // Effective (per-event, last-wins) emissions must match.
    const auto hw_em = read_hw_emissions(sim, img);
    std::vector<cfsm::EmittedEvent> expect;
    for (const auto& em : r.emissions) {
      bool found = false;
      for (auto& e : expect)
        if (e.event == em.event) {
          e.value = em.value;
          found = true;
        }
      if (!found) expect.push_back(em);
    }
    ASSERT_EQ(hw_em.size(), expect.size());
    for (const auto& em : expect) {
      bool matched = false;
      for (const auto& h : hw_em)
        if (h.event == em.event && h.value == em.value) matched = true;
      EXPECT_TRUE(matched) << "event " << em.event;
    }
  }
}

TEST(HwSyn, CounterAccumulates) {
  TestCfsm t;
  const auto v = t.c.add_var("cnt", 5);
  auto& g = t.c.graph();
  auto& a = t.c.arena();
  g.set_root(g.add_assign(
      v, a.binary(ExprOp::kAdd, a.variable(v), a.event_value(t.trig)),
      g.add_end()));
  std::vector<cfsm::ReactionInputs> seq;
  for (const std::int32_t x : {1, 10, -4, 100}) {
    cfsm::ReactionInputs in;
    in.set(t.trig, x);
    seq.push_back(in);
  }
  check_hw_equivalence(t, seq);
}

TEST(HwSyn, BranchingAndEmission) {
  TestCfsm t;
  const auto v = t.c.add_var("v");
  auto& g = t.c.graph();
  auto& a = t.c.arena();
  const auto end = g.add_end();
  const auto yes = g.add_emit(
      t.out, a.binary(ExprOp::kMul, a.event_value(t.trig), a.constant(3)),
      g.add_assign(v, a.constant(1), end));
  const auto no = g.add_assign(v, a.constant(0), end);
  g.set_root(g.add_test(
      a.binary(ExprOp::kGe, a.event_value(t.trig), a.constant(10)), yes, no));
  std::vector<cfsm::ReactionInputs> seq;
  for (const std::int32_t x : {5, 10, 9, 100, -1}) {
    cfsm::ReactionInputs in;
    in.set(t.trig, x);
    seq.push_back(in);
  }
  check_hw_equivalence(t, seq);
}

TEST(HwSyn, EventPresenceSteersBothBranches) {
  TestCfsm t;
  const auto v = t.c.add_var("v");
  auto& g = t.c.graph();
  auto& a = t.c.arena();
  const auto end = g.add_end();
  const auto got_aux = g.add_assign(
      v, a.binary(ExprOp::kAdd, a.variable(v), a.event_value(t.aux)), end);
  const auto no_aux = g.add_assign(
      v, a.binary(ExprOp::kAdd, a.variable(v), a.constant(1)), end);
  g.set_root(g.add_test(a.event_present(t.aux), got_aux, no_aux));
  std::vector<cfsm::ReactionInputs> seq;
  cfsm::ReactionInputs only_trig;
  only_trig.set(t.trig, 0);
  seq.push_back(only_trig);
  cfsm::ReactionInputs both;
  both.set(t.trig, 0);
  both.set(t.aux, 50);
  seq.push_back(both);
  seq.push_back(only_trig);
  check_hw_equivalence(t, seq);
}

TEST(HwSyn, SequentialAssignOverwriteWithinPath) {
  TestCfsm t;
  const auto v = t.c.add_var("v");
  const auto w = t.c.add_var("w");
  auto& g = t.c.graph();
  auto& a = t.c.arena();
  const auto end = g.add_end();
  // v := 7; w := v + 1 (must see 7); v := 9.
  const auto n3 = g.add_assign(v, a.constant(9), end);
  const auto n2 = g.add_assign(
      w, a.binary(ExprOp::kAdd, a.variable(v), a.constant(1)), n3);
  g.set_root(g.add_assign(v, a.constant(7), n2));
  std::vector<cfsm::ReactionInputs> seq(2);
  seq[0].set(t.trig, 0);
  seq[1].set(t.trig, 0);
  check_hw_equivalence(t, seq);
}

TEST(HwSyn, RandomizedEquivalenceSweep) {
  Rng rng(777);
  for (int trial = 0; trial < 12; ++trial) {
    TestCfsm t;
    const int n_vars = 2;
    for (int v = 0; v < n_vars; ++v)
      t.c.add_var(std::string("v").append(std::to_string(v)),
                  static_cast<std::int32_t>(rng.range(-9, 9)));
    auto& g = t.c.graph();
    auto& a = t.c.arena();

    auto rand_expr = [&](auto&& self, int depth) -> cfsm::ExprId {
      if (depth == 0 || rng.chance(0.35)) {
        switch (rng.below(3)) {
          case 0:
            return a.constant(static_cast<std::int32_t>(rng.range(-20, 20)));
          case 1:
            return a.variable(static_cast<cfsm::VarId>(rng.below(n_vars)));
          default:
            return a.event_value(t.trig);
        }
      }
      // HW-synthesizable subset (no div/mod, constant shifts only).
      static const ExprOp ops[] = {ExprOp::kAdd, ExprOp::kSub,
                                   ExprOp::kBitXor, ExprOp::kBitAnd,
                                   ExprOp::kLt, ExprOp::kEq, ExprOp::kGe};
      return a.binary(ops[rng.below(std::size(ops))], self(self, depth - 1),
                      self(self, depth - 1));
    };

    std::vector<cfsm::NodeId> frontier{g.add_end()};
    for (int i = 0; i < 6; ++i) {
      const cfsm::NodeId next = frontier[rng.below(frontier.size())];
      switch (rng.below(3)) {
        case 0:
          frontier.push_back(
              g.add_assign(static_cast<cfsm::VarId>(rng.below(n_vars)),
                           rand_expr(rand_expr, 2), next));
          break;
        case 1:
          frontier.push_back(g.add_emit(t.out, rand_expr(rand_expr, 2), next));
          break;
        default:
          frontier.push_back(g.add_test(
              rand_expr(rand_expr, 2), next,
              frontier[rng.below(frontier.size())]));
          break;
      }
    }
    g.set_root(frontier.back());
    ASSERT_EQ(g.validate(), "");

    std::vector<cfsm::ReactionInputs> seq;
    for (int s = 0; s < 6; ++s) {
      cfsm::ReactionInputs in;
      in.set(t.trig, static_cast<std::int32_t>(rng.range(-100, 100)));
      seq.push_back(in);
    }
    check_hw_equivalence(t, seq);
  }
}

TEST(HwSyn, SyncHwVarsForcesState) {
  TestCfsm t;
  const auto v = t.c.add_var("v");
  auto& g = t.c.graph();
  auto& a = t.c.arena();
  g.set_root(g.add_assign(
      v, a.binary(ExprOp::kAdd, a.variable(v), a.constant(1)), g.add_end()));
  const HwImage img = synthesize_cfsm(t.c);
  hw::GateSim sim(img.netlist.get());
  cfsm::CfsmState st = t.c.make_state();
  st.vars[0] = 41;
  sync_hw_vars(sim, img, st);
  cfsm::ReactionInputs in;
  in.set(t.trig, 0);
  stage_hw_reaction(sim, img, in);
  sim.step();
  EXPECT_EQ(read_hw_var(sim, img, 0), 42);
}

TEST(HwSyn, NarrowDatapathWidth) {
  TestCfsm t;
  const auto v = t.c.add_var("v");
  auto& g = t.c.graph();
  auto& a = t.c.arena();
  g.set_root(g.add_assign(
      v, a.binary(ExprOp::kAdd, a.variable(v), a.event_value(t.trig)),
      g.add_end()));
  const HwImage img = synthesize_cfsm(t.c, /*width=*/8);
  hw::GateSim sim(img.netlist.get());
  cfsm::ReactionInputs in;
  in.set(t.trig, 200);
  stage_hw_reaction(sim, img, in);
  sim.step();
  EXPECT_EQ(read_hw_var(sim, img, 0), 200 & 0xff);  // modulo 2^8 semantics
}

TEST(HwSyn, GateCountScalesWithWidth) {
  TestCfsm t;
  const auto v = t.c.add_var("v");
  auto& g = t.c.graph();
  auto& a = t.c.arena();
  g.set_root(g.add_assign(
      v, a.binary(ExprOp::kAdd, a.variable(v), a.event_value(t.trig)),
      g.add_end()));
  const HwImage wide = synthesize_cfsm(t.c, 32);
  const HwImage narrow = synthesize_cfsm(t.c, 8);
  EXPECT_GT(wide.netlist->gate_count(), narrow.netlist->gate_count());
  EXPECT_EQ(wide.netlist->dff_count(), 32u);
  EXPECT_EQ(narrow.netlist->dff_count(), 8u);
}

}  // namespace
}  // namespace socpower::hwsyn
