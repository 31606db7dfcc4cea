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

/// Write access to variables during a reaction.
class VarStore {
 public:
  virtual ~VarStore() = default;
  virtual void set_var(VarId v, std::int32_t value) = 0;
};

/// Observer invoked once per executed node, in execution order. Used by the
/// path recorder (energy cache keys), the software synthesizer (macro-op
/// stream) and debug tracing.
class ExecutionObserver {
 public:
  virtual ~ExecutionObserver() = default;
  virtual void on_node(NodeId node, const SNode& n, bool test_taken) = 0;
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
  /// Run one reaction. `ctx` supplies variable/event reads, `store` receives
  /// assignments (reads see earlier writes via ctx, which the caller backs
  /// with the same storage). `observer` may be nullptr.
  Reaction run(const EvalContext& ctx, VarStore& store,
               ExecutionObserver* observer = nullptr) const;

 private:
  ExprArena* arena_;
  std::vector<SNode> nodes_;
  std::vector<bool> defined_;
  NodeId root_ = kNoNode;
};

}  // namespace socpower::cfsm
