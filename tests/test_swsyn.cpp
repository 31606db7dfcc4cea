// Software synthesis tests: macro-op streams, code generation, and — most
// importantly — the property that compiled SLITE code running on the ISS
// computes exactly what the behavioral model computes (same variable
// updates, same emissions) over randomized s-graphs and inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
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
  const std::int32_t operands[] = {0,      1,          -1,        7,
                                   -13,    255,        4096,      -32768,
                                   0x7fffffff, INT32_MIN};
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

/// Push `tasks` (all ready at cycle 0) with their RTOS priorities and pop
/// them all; returns the dispatch order.
std::vector<cfsm::CfsmId> dispatch_order(
    const RtosModel& rtos, const std::vector<cfsm::CfsmId>& tasks) {
  ReadyQueue<int> q;
  for (const cfsm::CfsmId t : tasks) q.push(0, t, rtos.priority(t));
  std::vector<cfsm::CfsmId> order;
  while (const auto* e = q.pop(0)) order.push_back(e->task);
  return order;
}

TEST(Rtos, PriorityPicksHighest) {
  RtosModel rtos;
  rtos.set_priority(0, 1);
  rtos.set_priority(1, 5);
  rtos.set_priority(2, 3);
  EXPECT_EQ(dispatch_order(rtos, {0, 1, 2}),
            (std::vector<cfsm::CfsmId>{1, 2, 0}));
  EXPECT_EQ(dispatch_order(rtos, {0, 2}), (std::vector<cfsm::CfsmId>{2, 0}));
  EXPECT_EQ(dispatch_order(rtos, {0}), (std::vector<cfsm::CfsmId>{0}));
}

TEST(Rtos, FifoWithinPriorityLevel) {
  RtosModel rtos;
  rtos.set_priority(3, 2);
  rtos.set_priority(4, 2);
  // First in queue order wins ties.
  EXPECT_EQ(dispatch_order(rtos, {4, 3}), (std::vector<cfsm::CfsmId>{4, 3}));
  EXPECT_EQ(dispatch_order(rtos, {3, 4, 3}),
            (std::vector<cfsm::CfsmId>{3, 4, 3}));
}

TEST(ReadyQueue, NothingReadyBeforeReadyAt) {
  ReadyQueue<int> q;
  q.push(5, 1, 0).payload = 11;
  q.push(7, 2, 9).payload = 22;
  EXPECT_EQ(q.earliest_ready(), 5u);
  EXPECT_EQ(q.pop(4), nullptr);
  const auto* e = q.pop(6);  // the higher priority is not ready yet
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->task, 1);
  EXPECT_EQ(e->payload, 11);
  EXPECT_EQ(q.earliest_ready(), 7u);
  e = q.pop(7);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->payload, 22);
  EXPECT_TRUE(q.empty());
}

TEST(ReadyQueue, ClearKeepsWorking) {
  ReadyQueue<std::vector<int>> q;
  for (int i = 0; i < 20; ++i) q.push(10, i, i % 3).payload.assign(4, i);
  q.clear();
  EXPECT_TRUE(q.empty());
  // After clear() ready_at may start over from 0 (a new run).
  q.push(0, 7, 1).payload = {7};
  const auto* e = q.pop(0);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->task, 7);
  EXPECT_EQ(e->payload, std::vector<int>{7});
}

TEST(ReadyQueue, PushBackInTimeIsRejected) {
#ifdef NDEBUG
  GTEST_SKIP() << "the FIFO invariant is checked by assert()";
#else
  ReadyQueue<int> q;
  q.push(10, 0, 0);
  EXPECT_DEATH(q.push(9, 1, 0), "ready_at went backwards");
#endif
}

/// The dispatch rule the queue must reproduce, as a scan of every pending
/// entry in push order: among the entries with ready_at <= now, the first
/// one of the highest priority.
struct LinearReadyList {
  struct Item {
    std::uint64_t ready_at;
    cfsm::CfsmId task;
    int priority;
    int payload;
  };
  std::vector<Item> items;

  std::optional<Item> pop(std::uint64_t now) {
    std::size_t best = items.size();
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (items[i].ready_at > now) continue;
      if (best == items.size() || items[i].priority > items[best].priority)
        best = i;
    }
    if (best == items.size()) return std::nullopt;
    const Item it = items[best];
    items.erase(items.begin() + static_cast<std::ptrdiff_t>(best));
    return it;
  }
  [[nodiscard]] std::uint64_t earliest() const {
    std::uint64_t t = ~std::uint64_t{0};
    for (const Item& it : items) t = std::min(t, it.ready_at);
    return t;
  }
};

/// Randomized equivalence against the linear scan: several cores, each with
/// its own queue; pushes at a non-decreasing clock (the master's), with
/// mixed or all-equal priorities; dispatches at arbitrary query times;
/// cores that block for a while and take no dispatches but keep receiving
/// pushes.
void check_ready_queue_equivalence(std::uint64_t seed, bool equal_priorities) {
  constexpr int kCores = 3;
  constexpr int kTasks = 7;
  Rng rng(seed);
  auto uniform = [&rng](std::uint64_t lo, std::uint64_t hi) {
    return static_cast<std::uint64_t>(rng.range(static_cast<std::int64_t>(lo),
                                                static_cast<std::int64_t>(hi)));
  };
  std::vector<int> prio(kTasks);
  for (int& p : prio)
    p = equal_priorities ? 4 : static_cast<int>(uniform(0, 3)) - 1;
  std::vector<ReadyQueue<int>> queues(kCores);
  std::vector<LinearReadyList> refs(kCores);
  std::vector<bool> blocked(kCores, false);
  std::uint64_t clock = 0;
  int next_payload = 0;
  for (int step = 0; step < 4000; ++step) {
    const auto core = static_cast<std::size_t>(uniform(0, kCores - 1));
    const std::uint64_t op = uniform(0, 9);
    if (op < 2) {
      clock += uniform(0, 3);
    } else if (op < 6) {
      // Several pushes at one instant are common (one event instant
      // triggering several tasks on a core).
      const auto task = static_cast<cfsm::CfsmId>(uniform(0, kTasks - 1));
      const int p = prio[static_cast<std::size_t>(task)];
      queues[core].push(clock, task, p).payload = next_payload;
      refs[core].items.push_back({clock, task, p, next_payload});
      ++next_payload;
    } else if (op == 6) {
      blocked[core] = !blocked[core];
    } else if (!blocked[core]) {
      // Query at, before or after the clock: before it exercises entries
      // that are not ready yet.
      const std::uint64_t lo = clock >= 4 ? clock - 4 : 0;
      const std::uint64_t now = uniform(lo, clock + 2);
      const auto* got = queues[core].pop(now);
      const auto want = refs[core].pop(now);
      ASSERT_EQ(got != nullptr, want.has_value()) << "step " << step;
      if (got != nullptr) {
        EXPECT_EQ(got->task, want->task) << "step " << step;
        EXPECT_EQ(got->ready_at, want->ready_at) << "step " << step;
        EXPECT_EQ(got->payload, want->payload) << "step " << step;
      }
    }
    for (int c = 0; c < kCores; ++c) {
      const auto cu = static_cast<std::size_t>(c);
      ASSERT_TRUE(queues[cu].fifo_invariant_holds()) << "step " << step;
      ASSERT_EQ(queues[cu].size(), refs[cu].items.size()) << "step " << step;
      if (!queues[cu].empty()) {
        ASSERT_EQ(queues[cu].earliest_ready(), refs[cu].earliest());
      }
    }
  }
  // Drain everything at the end: the remaining order must agree too.
  for (int c = 0; c < kCores; ++c) {
    const auto cu = static_cast<std::size_t>(c);
    while (const auto want = refs[cu].pop(clock)) {
      const auto* got = queues[cu].pop(clock);
      ASSERT_NE(got, nullptr);
      EXPECT_EQ(got->payload, want->payload);
    }
    EXPECT_TRUE(queues[cu].empty());
  }
}

TEST(ReadyQueue, MatchesLinearScanMixedPriorities) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed)
    check_ready_queue_equivalence(seed, /*equal_priorities=*/false);
}

TEST(ReadyQueue, MatchesLinearScanEqualPriorities) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed)
    check_ready_queue_equivalence(seed, /*equal_priorities=*/true);
}

TEST(Rtos, DispatchEnergyPositive) {
  RtosModel rtos;
  EXPECT_GT(rtos.dispatch_energy(), 0.0);
  EXPECT_GT(rtos.dispatch_cycles(), 0u);
}

}  // namespace
}  // namespace socpower::swsyn
