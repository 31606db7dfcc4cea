#include "cfsm/expr.hpp"

#include <cassert>

namespace socpower::cfsm {

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

ExprId ExprArena::add(ExprNode n) {
  nodes_.push_back(n);
  return static_cast<ExprId>(nodes_.size() - 1);
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
