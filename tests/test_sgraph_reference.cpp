// The s-graph evaluator against a reference copy of the recursive, virtual
// evaluator it replaced: an EvalContext/VarStore interface pair behind
// every leaf read and every assignment, and ExprArena::eval walking the
// tree through it. Seeded random s-graphs use every expression operator
// (division and modulo by zero and shift amounts of 32 and more included)
// over variables and over input events that are present or absent; after
// every reaction the variable stores, emissions and traces must be equal.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "cfsm/cfsm.hpp"
#include "cfsm/expr.hpp"
#include "cfsm/sgraph.hpp"
#include "util/rng.hpp"

namespace socpower::cfsm {
namespace {

// -- the reference evaluator -------------------------------------------------

class EvalContext {
 public:
  virtual ~EvalContext() = default;
  [[nodiscard]] virtual std::int32_t var(VarId v) const = 0;
  [[nodiscard]] virtual bool event_present(EventId e) const = 0;
  [[nodiscard]] virtual std::int32_t event_value(EventId e) const = 0;
};

class VarStore {
 public:
  virtual ~VarStore() = default;
  virtual void set_var(VarId v, std::int32_t value) = 0;
};

class ReferenceEnv final : public EvalContext, public VarStore {
 public:
  ReferenceEnv(CfsmState& st, const ReactionInputs& in) : st_(st), in_(in) {}

  [[nodiscard]] std::int32_t var(VarId v) const override {
    return st_.vars.at(static_cast<std::size_t>(v));
  }
  [[nodiscard]] bool event_present(EventId e) const override {
    return in_.present(e);
  }
  [[nodiscard]] std::int32_t event_value(EventId e) const override {
    return in_.value(e);
  }
  void set_var(VarId v, std::int32_t value) override {
    st_.vars.at(static_cast<std::size_t>(v)) = value;
  }

 private:
  CfsmState& st_;
  const ReactionInputs& in_;
};

/// Operator applications the reference saw, so the test can show its
/// random programs reached the edge cases.
struct Coverage {
  std::array<std::uint64_t, 32> ops{};
  std::uint64_t div_by_zero = 0;
  std::uint64_t mod_by_zero = 0;
  std::uint64_t wide_shift = 0;  // shift amount outside [0, 31]
  std::uint64_t absent_event_reads = 0;
  std::uint64_t present_event_reads = 0;
};

std::int32_t reference_eval(const ExprArena& arena, ExprId id,
                            const EvalContext& ctx, Coverage& cov) {
  const ExprNode& n = arena.at(id);
  ++cov.ops[static_cast<std::size_t>(n.op)];
  switch (n.op) {
    case ExprOp::kConst:
      return n.value;
    case ExprOp::kVar:
      return ctx.var(n.value);
    case ExprOp::kEventValue:
    case ExprOp::kEventPresent: {
      const bool present = ctx.event_present(n.value);
      ++(present ? cov.present_event_reads : cov.absent_event_reads);
      if (n.op == ExprOp::kEventPresent) return present ? 1 : 0;
      return present ? ctx.event_value(n.value) : 0;
    }
    default: {
      const std::int32_t a = reference_eval(arena, n.lhs, ctx, cov);
      const std::int32_t b =
          expr_arity(n.op) == 2 ? reference_eval(arena, n.rhs, ctx, cov) : 0;
      if (b == 0 && n.op == ExprOp::kDiv) ++cov.div_by_zero;
      if (b == 0 && n.op == ExprOp::kMod) ++cov.mod_by_zero;
      if ((n.op == ExprOp::kShl || n.op == ExprOp::kShr) &&
          static_cast<std::uint32_t>(b) > 31u)
        ++cov.wide_shift;
      return apply_expr_op(n.op, a, b);
    }
  }
}

void reference_run(const SGraph& g, const EvalContext& ctx, VarStore& store,
                   Reaction& r, Coverage& cov) {
  r.emissions.clear();
  r.trace.clear();
  NodeId id = g.root();
  while (true) {
    r.trace.push_back(id);
    const SNode& n = g.node(id);
    switch (n.kind) {
      case NodeKind::kEnd:
        return;
      case NodeKind::kAssign:
        store.set_var(n.var, reference_eval(g.arena(), n.expr, ctx, cov));
        id = n.next;
        break;
      case NodeKind::kEmit: {
        std::int32_t v = 0;
        if (n.expr != kNoExpr) v = reference_eval(g.arena(), n.expr, ctx, cov);
        r.emissions.push_back({n.event, v});
        id = n.next;
        break;
      }
      case NodeKind::kTest:
        id = reference_eval(g.arena(), n.expr, ctx, cov) != 0 ? n.next
                                                              : n.next_else;
        break;
    }
  }
}

// -- random programs ---------------------------------------------------------

constexpr int kVars = 6;
constexpr int kEvents = 5;

constexpr std::array<ExprOp, 21> kOperators = {
    ExprOp::kAdd,    ExprOp::kSub,      ExprOp::kMul,     ExprOp::kDiv,
    ExprOp::kMod,    ExprOp::kNeg,      ExprOp::kBitAnd,  ExprOp::kBitOr,
    ExprOp::kBitXor, ExprOp::kBitNot,   ExprOp::kShl,     ExprOp::kShr,
    ExprOp::kEq,     ExprOp::kNe,       ExprOp::kLt,      ExprOp::kLe,
    ExprOp::kGt,     ExprOp::kGe,       ExprOp::kLogicAnd, ExprOp::kLogicOr,
    ExprOp::kLogicNot};

/// Small values and the edges: zero divisors, shift amounts of 32 and more
/// (and negative ones, which mask to large unsigned amounts), INT32 limits.
std::int32_t random_value(Rng& rng) {
  static constexpr std::array<std::int32_t, 12> kEdges = {
      0, 1, -1, 2, 31, 32, 33, 63, 100, -32,
      std::numeric_limits<std::int32_t>::min(),
      std::numeric_limits<std::int32_t>::max()};
  if (rng.chance(0.6)) return kEdges[rng.below(kEdges.size())];
  return static_cast<std::int32_t>(rng.range(-1000, 1000));
}

ExprId random_expr(ExprArena& a, Rng& rng, int depth) {
  if (depth == 0 || rng.chance(0.25)) {
    switch (rng.below(4)) {
      case 0: return a.constant(random_value(rng));
      case 1: return a.variable(static_cast<VarId>(rng.below(kVars)));
      case 2: return a.event_value(static_cast<EventId>(rng.below(kEvents)));
      default:
        return a.event_present(static_cast<EventId>(rng.below(kEvents)));
    }
  }
  const ExprOp op = kOperators[rng.below(kOperators.size())];
  const ExprId lhs = random_expr(a, rng, depth - 1);
  if (expr_arity(op) == 1) return a.unary(op, lhs);
  return a.binary(op, lhs, random_expr(a, rng, depth - 1));
}

/// A random s-graph over kVars variables and kEvents events. Every node's
/// successors are created before it, so the graph is a DAG; the last node
/// created is the root.
void build_random_graph(Cfsm& c, Rng& rng) {
  for (int v = 0; v < kVars; ++v)
    c.add_var(std::string("v").append(std::to_string(v)), random_value(rng));
  SGraph& g = c.graph();
  std::vector<NodeId> made{g.add_end(), g.add_end()};
  const std::size_t nodes = 8 + rng.below(24);
  auto any = [&] { return made[rng.below(made.size())]; };
  // Mostly the newest nodes as successors, so paths run long.
  auto recent = [&] {
    const std::size_t back = rng.below(std::min<std::size_t>(3, made.size()));
    return made[made.size() - 1 - back];
  };
  // One draw per statement, so the program does not depend on the order in
  // which a compiler evaluates call arguments.
  for (std::size_t i = 0; i < nodes; ++i) {
    ExprArena& a = c.arena();
    const std::uint64_t kind = rng.below(3);
    const int depth = 1 + static_cast<int>(rng.below(4));
    const auto target = static_cast<std::int32_t>(rng.below(kVars));
    const ExprId e = kind == 1 && rng.chance(0.2) ? kNoExpr
                                                  : random_expr(a, rng, depth);
    const NodeId next = recent();
    if (kind == 0) {
      made.push_back(g.add_assign(target, e, next));
    } else if (kind == 1) {
      made.push_back(g.add_emit(target % kEvents, e, next));
    } else {
      made.push_back(g.add_test(e, next, any()));
    }
  }
  g.set_root(made.back());
  ASSERT_EQ(g.validate(), "");
}

class SGraphReference : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SGraphReference, EvaluatorMatchesRecursiveVirtualReference) {
  Rng rng(GetParam());
  Coverage cov;
  std::uint64_t emissions = 0;
  for (int program = 0; program < 40; ++program) {
    Cfsm c(0, "random");
    build_random_graph(c, rng);
    CfsmState st = c.make_state();
    CfsmState ref_st = c.make_state();
    Reaction r;
    Reaction ref;
    ReactionInputs in;
    for (int reaction = 0; reaction < 25; ++reaction) {
      in.clear();
      for (EventId e = 0; e < kEvents; ++e)
        if (rng.chance(0.5)) in.set(e, random_value(rng));
      c.react(in, st, r);
      ReferenceEnv env(ref_st, in);
      reference_run(c.graph(), env, env, ref, cov);
      ASSERT_EQ(st.vars, ref_st.vars)
          << "program " << program << " reaction " << reaction;
      ASSERT_EQ(r.trace, ref.trace)
          << "program " << program << " reaction " << reaction;
      ASSERT_EQ(r.emissions.size(), ref.emissions.size());
      for (std::size_t i = 0; i < r.emissions.size(); ++i) {
        EXPECT_EQ(r.emissions[i].event, ref.emissions[i].event);
        EXPECT_EQ(r.emissions[i].value, ref.emissions[i].value);
      }
      emissions += r.emissions.size();
    }
  }
  // The random programs must actually have reached what they claim to cover.
  for (const ExprOp op : kOperators)
    EXPECT_GT(cov.ops[static_cast<std::size_t>(op)], 0u) << expr_op_name(op);
  EXPECT_GT(cov.div_by_zero, 0u);
  EXPECT_GT(cov.mod_by_zero, 0u);
  EXPECT_GT(cov.wide_shift, 0u);
  EXPECT_GT(cov.absent_event_reads, 0u);
  EXPECT_GT(cov.present_event_reads, 0u);
  EXPECT_GT(emissions, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SGraphReference,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace socpower::cfsm
