#include "cfsm/expr.hpp"

#include <cassert>

namespace socpower::cfsm {

int expr_arity(ExprOp op) {
  switch (op) {
    case ExprOp::kConst:
    case ExprOp::kVar:
    case ExprOp::kEventValue:
    case ExprOp::kEventPresent:
      return 0;
    case ExprOp::kNeg:
    case ExprOp::kBitNot:
    case ExprOp::kLogicNot:
      return 1;
    default:
      return 2;
  }
}

const char* expr_op_name(ExprOp op) {
  switch (op) {
    case ExprOp::kConst: return "CONST";
    case ExprOp::kVar: return "RVAR";
    case ExprOp::kEventValue: return "EVAL";
    case ExprOp::kEventPresent: return "TEIN";
    case ExprOp::kAdd: return "ADD";
    case ExprOp::kSub: return "SUB";
    case ExprOp::kMul: return "MUL";
    case ExprOp::kDiv: return "DIV";
    case ExprOp::kMod: return "MOD";
    case ExprOp::kNeg: return "NEG";
    case ExprOp::kBitAnd: return "AND";
    case ExprOp::kBitOr: return "OR";
    case ExprOp::kBitXor: return "XOR";
    case ExprOp::kBitNot: return "NOT";
    case ExprOp::kShl: return "SHL";
    case ExprOp::kShr: return "SHR";
    case ExprOp::kEq: return "EQ";
    case ExprOp::kNe: return "NE";
    case ExprOp::kLt: return "LT";
    case ExprOp::kLe: return "LE";
    case ExprOp::kGt: return "GT";
    case ExprOp::kGe: return "GE";
    case ExprOp::kLogicAnd: return "LAND";
    case ExprOp::kLogicOr: return "LOR";
    case ExprOp::kLogicNot: return "LNOT";
  }
  return "?";
}

std::int32_t apply_expr_op(ExprOp op, std::int32_t a, std::int32_t b) {
  const auto ua = static_cast<std::uint32_t>(a);
  const auto ub = static_cast<std::uint32_t>(b);
  switch (op) {
    case ExprOp::kAdd: return static_cast<std::int32_t>(ua + ub);
    case ExprOp::kSub: return static_cast<std::int32_t>(ua - ub);
    case ExprOp::kMul: return static_cast<std::int32_t>(ua * ub);
    case ExprOp::kDiv: return b == 0 ? 0 : a / b;
    // x mod 0 == x, consistent with the a - (a/b)*b lowering used by both
    // the software code generator and the hardware datapath (a/0 == 0).
    case ExprOp::kMod: return b == 0 ? a : a % b;
    case ExprOp::kNeg: return static_cast<std::int32_t>(0u - ua);
    case ExprOp::kBitAnd: return a & b;
    case ExprOp::kBitOr: return a | b;
    case ExprOp::kBitXor: return a ^ b;
    case ExprOp::kBitNot: return ~a;
    case ExprOp::kShl:
      return static_cast<std::int32_t>(ua << (ub & 31u));
    case ExprOp::kShr: return a >> (ub & 31u);
    case ExprOp::kEq: return a == b ? 1 : 0;
    case ExprOp::kNe: return a != b ? 1 : 0;
    case ExprOp::kLt: return a < b ? 1 : 0;
    case ExprOp::kLe: return a <= b ? 1 : 0;
    case ExprOp::kGt: return a > b ? 1 : 0;
    case ExprOp::kGe: return a >= b ? 1 : 0;
    case ExprOp::kLogicAnd: return (a != 0 && b != 0) ? 1 : 0;
    case ExprOp::kLogicOr: return (a != 0 || b != 0) ? 1 : 0;
    case ExprOp::kLogicNot: return a == 0 ? 1 : 0;
    default:
      assert(false && "apply_expr_op called with a leaf operator");
      return 0;
  }
}

ExprId ExprArena::add(ExprNode n) {
  nodes_.push_back(n);
  return static_cast<ExprId>(nodes_.size() - 1);
}

const ExprNode& ExprArena::at(ExprId id) const {
  assert(id >= 0 && static_cast<std::size_t>(id) < nodes_.size());
  return nodes_[static_cast<std::size_t>(id)];
}

ExprId ExprArena::constant(std::int32_t v) {
  return add({ExprOp::kConst, v, kNoExpr, kNoExpr});
}

ExprId ExprArena::variable(VarId v) {
  return add({ExprOp::kVar, v, kNoExpr, kNoExpr});
}

ExprId ExprArena::event_value(EventId e) {
  return add({ExprOp::kEventValue, e, kNoExpr, kNoExpr});
}

ExprId ExprArena::event_present(EventId e) {
  return add({ExprOp::kEventPresent, e, kNoExpr, kNoExpr});
}

ExprId ExprArena::unary(ExprOp op, ExprId a) {
  assert(expr_arity(op) == 1);
  return add({op, 0, a, kNoExpr});
}

ExprId ExprArena::binary(ExprOp op, ExprId a, ExprId b) {
  assert(expr_arity(op) == 2);
  return add({op, 0, a, b});
}

std::int32_t ExprArena::eval(ExprId id, const EvalContext& ctx) const {
  const ExprNode& n = at(id);
  switch (n.op) {
    case ExprOp::kConst:
      return n.value;
    case ExprOp::kVar:
      return ctx.var(n.value);
    case ExprOp::kEventValue:
      return ctx.event_present(n.value) ? ctx.event_value(n.value) : 0;
    case ExprOp::kEventPresent:
      return ctx.event_present(n.value) ? 1 : 0;
    default: {
      const std::int32_t a = eval(n.lhs, ctx);
      const std::int32_t b =
          expr_arity(n.op) == 2 ? eval(n.rhs, ctx) : 0;
      return apply_expr_op(n.op, a, b);
    }
  }
}

void ExprArena::flatten(ExprId id, std::vector<ExprId>& out) const {
  const ExprNode& n = at(id);
  if (n.lhs != kNoExpr) flatten(n.lhs, out);
  if (n.rhs != kNoExpr) flatten(n.rhs, out);
  out.push_back(id);
}

std::size_t ExprArena::tree_size(ExprId id) const {
  const ExprNode& n = at(id);
  std::size_t s = 1;
  if (n.lhs != kNoExpr) s += tree_size(n.lhs);
  if (n.rhs != kNoExpr) s += tree_size(n.rhs);
  return s;
}

std::string ExprArena::to_string(ExprId id) const {
  const ExprNode& n = at(id);
  switch (n.op) {
    case ExprOp::kConst:
      return std::to_string(n.value);
    case ExprOp::kVar:
      return std::string("v").append(std::to_string(n.value));
    case ExprOp::kEventValue:
      return "val(e" + std::to_string(n.value) + ")";
    case ExprOp::kEventPresent:
      return "present(e" + std::to_string(n.value) + ")";
    default: {
      std::string s = expr_op_name(n.op);
      s += "(";
      s += to_string(n.lhs);
      if (expr_arity(n.op) == 2) {
        s += ",";
        s += to_string(n.rhs);
      }
      s += ")";
      return s;
    }
  }
}

}  // namespace socpower::cfsm
