// Expression IR for CFSM transition functions.
//
// POLIS describes each process's reaction as an "s-graph" whose nodes test
// and assign integer-valued expressions over process variables and input
// event values. Expressions here live in a per-CFSM arena (index-based, no
// pointers) so s-graphs are cheap to copy and hash. The ~20 operator kinds
// mirror the pre-characterized function library the paper mentions in
// Section 4.1 (ADD(x1,x2), NOT(x1), EQ(x1,x2), ...).
#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace socpower::cfsm {

using ExprId = std::int32_t;
using VarId = std::int32_t;
using EventId = std::int32_t;

inline constexpr ExprId kNoExpr = -1;

enum class ExprOp : std::uint8_t {
  kConst,         // literal value
  kVar,           // CFSM variable
  kEventValue,    // value carried by an input event (0 if absent)
  kEventPresent,  // 1 if the input event is present in this reaction
  kAdd,
  kSub,
  kMul,
  kDiv,  // trapping-free: x/0 == 0 (matches HW datapath guard)
  kMod,  // x%0 == x (consistent with the a-(a/b)*b lowering)
  kNeg,
  kBitAnd,
  kBitOr,
  kBitXor,
  kBitNot,
  kShl,  // shift amounts masked to [0,31]
  kShr,  // arithmetic shift right
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kLogicAnd,  // operands normalized to 0/1
  kLogicOr,
  kLogicNot,
};

/// Number of operands an operator consumes (0 for leaves).
[[nodiscard]] constexpr int expr_arity(ExprOp op) {
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
/// Stable mnemonic ("ADD", "EQ", ...) used by macro-model parameter files.
[[nodiscard]] const char* expr_op_name(ExprOp op);

struct ExprNode {
  ExprOp op = ExprOp::kConst;
  std::int32_t value = 0;  // kConst: literal; kVar: VarId; kEvent*: EventId
  ExprId lhs = kNoExpr;
  ExprId rhs = kNoExpr;
};

/// Shared scalar semantics for one operator application — the single source
/// of truth used by the interpreter, the ISS code generator's expected
/// results, and the gate-level datapath synthesizer's reference model.
[[nodiscard]] inline std::int32_t apply_expr_op(ExprOp op, std::int32_t a,
                                                std::int32_t b) {
  const auto ua = static_cast<std::uint32_t>(a);
  const auto ub = static_cast<std::uint32_t>(b);
  switch (op) {
    case ExprOp::kAdd: return static_cast<std::int32_t>(ua + ub);
    case ExprOp::kSub: return static_cast<std::int32_t>(ua - ub);
    case ExprOp::kMul: return static_cast<std::int32_t>(ua * ub);
    // INT_MIN / -1 wraps to INT_MIN, as the ISS's DIV does; computing it
    // natively would trap.
    case ExprOp::kDiv:
      return b == 0 ? 0 : b == -1 ? static_cast<std::int32_t>(0u - ua) : a / b;
    // x mod 0 == x, consistent with the a - (a/b)*b lowering used by both
    // the software code generator and the hardware datapath (a/0 == 0);
    // x mod -1 == 0, INT_MIN included.
    case ExprOp::kMod: return b == 0 ? a : b == -1 ? 0 : a % b;
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

/// Append-only expression arena owned by a CFSM.
class ExprArena {
 public:
  ExprId add(ExprNode n);
  [[nodiscard]] const ExprNode& at(ExprId id) const {
    assert(id >= 0 && static_cast<std::size_t>(id) < nodes_.size());
    return nodes_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }

  // Leaf constructors.
  ExprId constant(std::int32_t v);
  ExprId variable(VarId v);
  ExprId event_value(EventId e);
  ExprId event_present(EventId e);
  // Operator constructors (arity checked with assertions).
  ExprId unary(ExprOp op, ExprId a);
  ExprId binary(ExprOp op, ExprId a, ExprId b);

  /// Evaluate expression `id` in `env`, which provides var(VarId),
  /// event_present(EventId) and event_value(EventId) — the value carried by
  /// a present event, 0 for an absent one. A template over the environment
  /// so leaf reads inline: Cfsm::react's reaction environment is the one
  /// the library uses.
  template <class Env>
  [[nodiscard]] std::int32_t eval(ExprId id, const Env& env) const {
    const ExprNode& n = at(id);
    switch (n.op) {
      case ExprOp::kConst:
        return n.value;
      case ExprOp::kVar:
        return env.var(n.value);
      case ExprOp::kEventValue:
        return env.event_value(n.value);
      case ExprOp::kEventPresent:
        return env.event_present(n.value) ? 1 : 0;
      default: {
        const std::int32_t a = eval(n.lhs, env);
        const std::int32_t b = expr_arity(n.op) == 2 ? eval(n.rhs, env) : 0;
        return apply_expr_op(n.op, a, b);
      }
    }
  }

  /// Post-order operator sequence of the expression tree — the macro-op
  /// stream the software synthesizer consumes (leaves included).
  void flatten(ExprId id, std::vector<ExprId>& out) const;

  /// Number of nodes in the tree rooted at `id`.
  [[nodiscard]] std::size_t tree_size(ExprId id) const;

  /// Human-readable rendering for debug/report output.
  [[nodiscard]] std::string to_string(ExprId id) const;

 private:
  std::vector<ExprNode> nodes_;
};

}  // namespace socpower::cfsm
