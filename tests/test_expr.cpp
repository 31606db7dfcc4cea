// Expression IR tests: evaluation semantics of every operator (parameterized
// sweep), arena construction, flattening order, and the shared
// apply_expr_op() reference semantics.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "cfsm/expr.hpp"

namespace socpower::cfsm {
namespace {

class MapContext final {
 public:
  std::vector<std::int32_t> vars;
  std::vector<std::pair<EventId, std::int32_t>> events;

  [[nodiscard]] std::int32_t var(VarId v) const {
    return vars.at(static_cast<std::size_t>(v));
  }
  [[nodiscard]] bool event_present(EventId e) const {
    for (const auto& [ev, _] : events)
      if (ev == e) return true;
    return false;
  }
  [[nodiscard]] std::int32_t event_value(EventId e) const {
    for (const auto& [ev, val] : events)
      if (ev == e) return val;
    return 0;
  }
};

TEST(Expr, LeafConstant) {
  ExprArena a;
  MapContext ctx;
  EXPECT_EQ(a.eval(a.constant(42), ctx), 42);
  EXPECT_EQ(a.eval(a.constant(-7), ctx), -7);
}

TEST(Expr, LeafVariable) {
  ExprArena a;
  MapContext ctx;
  ctx.vars = {10, 20, 30};
  EXPECT_EQ(a.eval(a.variable(0), ctx), 10);
  EXPECT_EQ(a.eval(a.variable(2), ctx), 30);
}

TEST(Expr, EventValueZeroWhenAbsent) {
  ExprArena a;
  MapContext ctx;
  ctx.events = {{3, 99}};
  EXPECT_EQ(a.eval(a.event_value(3), ctx), 99);
  EXPECT_EQ(a.eval(a.event_value(4), ctx), 0);
  EXPECT_EQ(a.eval(a.event_present(3), ctx), 1);
  EXPECT_EQ(a.eval(a.event_present(4), ctx), 0);
}

struct OpCase {
  OpCase(ExprOp op_, std::int32_t a_, std::int32_t b_, std::int32_t expect_)
      : op(op_), a(a_), b(b_), expect(expect_) {}
  ExprOp op;
  // gtest names each case after the raw bytes of its parameter; explicit zero
  // bytes in place of padding keep those names the same from run to run.
  std::uint8_t zero[3] = {};
  std::int32_t a;
  std::int32_t b;
  std::int32_t expect;
};

class ExprOpSemantics : public ::testing::TestWithParam<OpCase> {};

TEST_P(ExprOpSemantics, BinaryEval) {
  const OpCase& c = GetParam();
  ExprArena arena;
  MapContext ctx;
  const ExprId e =
      arena.binary(c.op, arena.constant(c.a), arena.constant(c.b));
  EXPECT_EQ(arena.eval(e, ctx), c.expect)
      << expr_op_name(c.op) << "(" << c.a << "," << c.b << ")";
  EXPECT_EQ(apply_expr_op(c.op, c.a, c.b), c.expect);
}

INSTANTIATE_TEST_SUITE_P(
    Arithmetic, ExprOpSemantics,
    ::testing::Values(
        OpCase{ExprOp::kAdd, 3, 4, 7}, OpCase{ExprOp::kAdd, -3, 1, -2},
        OpCase{ExprOp::kAdd, 0x7fffffff, 1, INT32_MIN},  // wraparound
        OpCase{ExprOp::kSub, 3, 4, -1},
        OpCase{ExprOp::kSub, INT32_MIN, 1, 0x7fffffff},
        OpCase{ExprOp::kMul, 7, 6, 42}, OpCase{ExprOp::kMul, -3, 5, -15},
        OpCase{ExprOp::kDiv, 42, 6, 7}, OpCase{ExprOp::kDiv, -7, 2, -3},
        OpCase{ExprOp::kDiv, 5, 0, 0},  // guarded divide
        OpCase{ExprOp::kMod, 42, 5, 2}, OpCase{ExprOp::kMod, -7, 3, -1},
        OpCase{ExprOp::kMod, 9, 0, 9},  // x mod 0 == x
        // INT_MIN / -1 wraps (as the ISS's DIV does) instead of trapping.
        OpCase{ExprOp::kDiv, INT32_MIN, -1, INT32_MIN},
        OpCase{ExprOp::kDiv, 7, -1, -7},
        OpCase{ExprOp::kMod, INT32_MIN, -1, 0}));

INSTANTIATE_TEST_SUITE_P(
    Bitwise, ExprOpSemantics,
    ::testing::Values(
        OpCase{ExprOp::kBitAnd, 0b1100, 0b1010, 0b1000},
        OpCase{ExprOp::kBitOr, 0b1100, 0b1010, 0b1110},
        OpCase{ExprOp::kBitXor, 0b1100, 0b1010, 0b0110},
        OpCase{ExprOp::kShl, 1, 4, 16},
        OpCase{ExprOp::kShl, 1, 33, 2},   // shift amounts mask to 5 bits
        OpCase{ExprOp::kShr, -16, 2, -4},  // arithmetic
        OpCase{ExprOp::kShr, 16, 2, 4}));

INSTANTIATE_TEST_SUITE_P(
    Relational, ExprOpSemantics,
    ::testing::Values(
        OpCase{ExprOp::kEq, 5, 5, 1}, OpCase{ExprOp::kEq, 5, 6, 0},
        OpCase{ExprOp::kNe, 5, 6, 1}, OpCase{ExprOp::kNe, 5, 5, 0},
        OpCase{ExprOp::kLt, -1, 0, 1}, OpCase{ExprOp::kLt, 0, 0, 0},
        OpCase{ExprOp::kLe, 0, 0, 1}, OpCase{ExprOp::kLe, 1, 0, 0},
        OpCase{ExprOp::kGt, 1, 0, 1}, OpCase{ExprOp::kGt, 0, 0, 0},
        OpCase{ExprOp::kGe, 0, 0, 1}, OpCase{ExprOp::kGe, -1, 0, 0}));

INSTANTIATE_TEST_SUITE_P(
    Logical, ExprOpSemantics,
    ::testing::Values(
        OpCase{ExprOp::kLogicAnd, 2, 3, 1}, OpCase{ExprOp::kLogicAnd, 2, 0, 0},
        OpCase{ExprOp::kLogicOr, 0, 3, 1}, OpCase{ExprOp::kLogicOr, 0, 0, 0}));

TEST(Expr, UnaryOperators) {
  ExprArena a;
  MapContext ctx;
  EXPECT_EQ(a.eval(a.unary(ExprOp::kNeg, a.constant(5)), ctx), -5);
  EXPECT_EQ(a.eval(a.unary(ExprOp::kNeg, a.constant(INT32_MIN)), ctx),
            INT32_MIN);
  EXPECT_EQ(a.eval(a.unary(ExprOp::kBitNot, a.constant(0)), ctx), -1);
  EXPECT_EQ(a.eval(a.unary(ExprOp::kLogicNot, a.constant(0)), ctx), 1);
  EXPECT_EQ(a.eval(a.unary(ExprOp::kLogicNot, a.constant(-3)), ctx), 0);
}

TEST(Expr, NestedTree) {
  // (v0 + 3) * (v1 - v0)
  ExprArena a;
  MapContext ctx;
  ctx.vars = {2, 10};
  const ExprId e = a.binary(
      ExprOp::kMul, a.binary(ExprOp::kAdd, a.variable(0), a.constant(3)),
      a.binary(ExprOp::kSub, a.variable(1), a.variable(0)));
  EXPECT_EQ(a.eval(e, ctx), (2 + 3) * (10 - 2));
}

TEST(Expr, FlattenIsPostOrder) {
  ExprArena a;
  const ExprId l = a.constant(1);
  const ExprId r = a.constant(2);
  const ExprId e = a.binary(ExprOp::kAdd, l, r);
  std::vector<ExprId> out;
  a.flatten(e, out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], l);
  EXPECT_EQ(out[1], r);
  EXPECT_EQ(out[2], e);
}

TEST(Expr, TreeSize) {
  ExprArena a;
  const ExprId e = a.binary(
      ExprOp::kAdd, a.constant(1),
      a.binary(ExprOp::kMul, a.variable(0), a.constant(2)));
  EXPECT_EQ(a.tree_size(e), 5u);
}

TEST(Expr, ArityTable) {
  EXPECT_EQ(expr_arity(ExprOp::kConst), 0);
  EXPECT_EQ(expr_arity(ExprOp::kVar), 0);
  EXPECT_EQ(expr_arity(ExprOp::kNeg), 1);
  EXPECT_EQ(expr_arity(ExprOp::kLogicNot), 1);
  EXPECT_EQ(expr_arity(ExprOp::kAdd), 2);
  EXPECT_EQ(expr_arity(ExprOp::kLe), 2);
}

TEST(Expr, ToStringRoundtripsStructure) {
  ExprArena a;
  const ExprId e =
      a.binary(ExprOp::kAdd, a.variable(1), a.constant(7));
  EXPECT_EQ(a.to_string(e), "ADD(v1,7)");
}

TEST(Expr, OpNamesAreUnique) {
  // Names feed the macro-model parameter file; collisions would corrupt it.
  std::vector<std::string> names;
  for (int i = 0; i <= static_cast<int>(ExprOp::kLogicNot); ++i)
    names.push_back(expr_op_name(static_cast<ExprOp>(i)));
  for (std::size_t i = 0; i < names.size(); ++i)
    for (std::size_t j = i + 1; j < names.size(); ++j)
      EXPECT_NE(names[i], names[j]);
}

}  // namespace
}  // namespace socpower::cfsm
