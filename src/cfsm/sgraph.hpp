// S-graph: the POLIS transition-function representation.
//
// A CFSM reaction executes the s-graph from its root to an End node. Nodes
// are Test (two-way branch on an expression), Assign (variable := expression)
// and Emit (output event, with an optional value expression). The s-graph is
// a DAG; loops in the behavior are expressed by a process re-triggering
// itself through an event, which keeps the number of distinct execution
// paths finite — exactly the property the paper's energy cache keys on
// ("path_id" in Figure 4(c)).
#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "cfsm/expr.hpp"

namespace socpower::cfsm {

using NodeId = std::int32_t;
using PathId = std::int32_t;

inline constexpr NodeId kNoNode = -1;
inline constexpr PathId kNoPath = -1;

enum class NodeKind : std::uint8_t { kTest, kAssign, kEmit, kEnd };

struct SNode {
  NodeKind kind = NodeKind::kEnd;
  ExprId expr = kNoExpr;   // Test: condition; Assign: rhs; Emit: value (opt)
  VarId var = -1;          // Assign target
  EventId event = -1;      // Emit target
  NodeId next = kNoNode;   // Assign/Emit successor; Test: taken branch
  NodeId next_else = kNoNode;  // Test: not-taken branch
};

struct EmittedEvent {
  EventId event = -1;
  std::int32_t value = 0;
};

struct Reaction {
  std::vector<EmittedEvent> emissions;
  std::vector<NodeId> trace;  // executed node ids, root..End
};

/// Interns executed-node sequences into dense PathIds.
class PathTable {
 public:
  PathId intern(const std::vector<NodeId>& trace);
  [[nodiscard]] std::size_t size() const { return paths_.size(); }
  [[nodiscard]] const std::vector<NodeId>& path(PathId id) const;

 private:
  std::unordered_map<std::string, PathId> index_;
  std::vector<std::vector<NodeId>> paths_;
  std::string key_scratch_;  // intern()'s lookup key, reused across calls
};

class SGraph {
 public:
  explicit SGraph(ExprArena* arena) : arena_(arena) {}

  // -- construction ---------------------------------------------------------
  /// Reserve a node id for forward references; must be defined before run().
  NodeId reserve();
  NodeId add_end();
  NodeId add_assign(VarId var, ExprId rhs, NodeId next);
  NodeId add_emit(EventId event, ExprId value, NodeId next);
  NodeId add_test(ExprId cond, NodeId then_node, NodeId else_node);
  void define_end(NodeId id);
  void define_assign(NodeId id, VarId var, ExprId rhs, NodeId next);
  void define_emit(NodeId id, EventId event, ExprId value, NodeId next);
  void define_test(NodeId id, ExprId cond, NodeId then_node, NodeId else_node);
  void set_root(NodeId id) { root_ = id; }

  /// Validates that all reserved nodes are defined, all successors exist and
  /// the graph is acyclic and reachable-to-End. Call once after building.
  /// Returns an empty string on success, else a diagnostic.
  [[nodiscard]] std::string validate() const;

  // -- introspection --------------------------------------------------------
  [[nodiscard]] NodeId root() const { return root_; }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] const SNode& node(NodeId id) const;
  [[nodiscard]] const ExprArena& arena() const { return *arena_; }

  /// Enumerate all root-to-End node traces, up to `cap` paths (s-graphs are
  /// DAGs so the count is finite). Used by the macro-model annotator and by
  /// tests.
  [[nodiscard]] std::vector<std::vector<NodeId>> enumerate_paths(
      std::size_t cap = 4096) const;

  // -- execution ------------------------------------------------------------
  /// Run one reaction into `out` (cleared first; its capacity is reused, so
  /// a caller that keeps one Reaction across calls allocates only when a
  /// longer path or more emissions than before come along). `env` supplies
  /// the reads ExprArena::eval() makes and receives assignments through
  /// set_var(VarId, value); later reads must see earlier writes. A template
  /// for the same reason eval() is one.
  template <class Env>
  void run(Env& env, Reaction& out) const;

 private:
  ExprArena* arena_;
  std::vector<SNode> nodes_;
  std::vector<bool> defined_;
  NodeId root_ = kNoNode;
};

template <class Env>
void SGraph::run(Env& env, Reaction& r) const {
  assert(root_ != kNoNode);
  r.emissions.clear();
  r.trace.clear();
  NodeId id = root_;
  // Node count bounds path length in a DAG; guards against accidental cycles
  // in unvalidated graphs.
  [[maybe_unused]] const std::size_t limit = nodes_.size() + 1;
  while (true) {
    assert(r.trace.size() < limit && "cycle in s-graph (run validate())");
    r.trace.push_back(id);
    const SNode& n = nodes_[static_cast<std::size_t>(id)];
    switch (n.kind) {
      case NodeKind::kEnd:
        return;
      case NodeKind::kAssign:
        env.set_var(n.var, arena_->eval(n.expr, env));
        id = n.next;
        break;
      case NodeKind::kEmit:
        r.emissions.push_back(
            {n.event, n.expr == kNoExpr ? 0 : arena_->eval(n.expr, env)});
        id = n.next;
        break;
      case NodeKind::kTest:
        id = arena_->eval(n.expr, env) != 0 ? n.next : n.next_else;
        break;
    }
  }
}

}  // namespace socpower::cfsm
