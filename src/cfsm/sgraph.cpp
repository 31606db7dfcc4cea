#include "cfsm/sgraph.hpp"

#include <cassert>

namespace socpower::cfsm {

PathId PathTable::intern(const std::vector<NodeId>& trace) {
  // The key is built in a reused buffer, so a known path allocates nothing;
  // only a new path copies it into the index.
  key_scratch_.assign(reinterpret_cast<const char*>(trace.data()),
                      trace.size() * sizeof(NodeId));
  if (const auto it = index_.find(key_scratch_); it != index_.end())
    return it->second;
  const auto id = static_cast<PathId>(paths_.size());
  index_.emplace(key_scratch_, id);
  paths_.push_back(trace);
  return id;
}

const std::vector<NodeId>& PathTable::path(PathId id) const {
  assert(id >= 0 && static_cast<std::size_t>(id) < paths_.size());
  return paths_[static_cast<std::size_t>(id)];
}

NodeId SGraph::reserve() {
  nodes_.emplace_back();
  defined_.push_back(false);
  return static_cast<NodeId>(nodes_.size() - 1);
}

NodeId SGraph::add_end() {
  const NodeId id = reserve();
  define_end(id);
  return id;
}

NodeId SGraph::add_assign(VarId var, ExprId rhs, NodeId next) {
  const NodeId id = reserve();
  define_assign(id, var, rhs, next);
  return id;
}

NodeId SGraph::add_emit(EventId event, ExprId value, NodeId next) {
  const NodeId id = reserve();
  define_emit(id, event, value, next);
  return id;
}

NodeId SGraph::add_test(ExprId cond, NodeId then_node, NodeId else_node) {
  const NodeId id = reserve();
  define_test(id, cond, then_node, else_node);
  return id;
}

void SGraph::define_end(NodeId id) {
  auto& n = nodes_.at(static_cast<std::size_t>(id));
  n = SNode{};
  n.kind = NodeKind::kEnd;
  defined_[static_cast<std::size_t>(id)] = true;
}

void SGraph::define_assign(NodeId id, VarId var, ExprId rhs, NodeId next) {
  auto& n = nodes_.at(static_cast<std::size_t>(id));
  n.kind = NodeKind::kAssign;
  n.var = var;
  n.expr = rhs;
  n.next = next;
  defined_[static_cast<std::size_t>(id)] = true;
}

void SGraph::define_emit(NodeId id, EventId event, ExprId value, NodeId next) {
  auto& n = nodes_.at(static_cast<std::size_t>(id));
  n.kind = NodeKind::kEmit;
  n.event = event;
  n.expr = value;
  n.next = next;
  defined_[static_cast<std::size_t>(id)] = true;
}

void SGraph::define_test(NodeId id, ExprId cond, NodeId then_node,
                         NodeId else_node) {
  auto& n = nodes_.at(static_cast<std::size_t>(id));
  n.kind = NodeKind::kTest;
  n.expr = cond;
  n.next = then_node;
  n.next_else = else_node;
  defined_[static_cast<std::size_t>(id)] = true;
}

const SNode& SGraph::node(NodeId id) const {
  assert(id >= 0 && static_cast<std::size_t>(id) < nodes_.size());
  return nodes_[static_cast<std::size_t>(id)];
}

std::string SGraph::validate() const {
  if (root_ == kNoNode) return "s-graph has no root";
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (!defined_[i])
      return "node " + std::to_string(i) + " reserved but never defined";
    const SNode& n = nodes_[i];
    auto check_succ = [&](NodeId s) {
      return s >= 0 && static_cast<std::size_t>(s) < nodes_.size();
    };
    if (n.kind != NodeKind::kEnd && !check_succ(n.next))
      return "node " + std::to_string(i) + " has invalid successor";
    if (n.kind == NodeKind::kTest && !check_succ(n.next_else))
      return "node " + std::to_string(i) + " has invalid else-successor";
  }
  // Acyclicity: iterative DFS with colors.
  enum : std::uint8_t { kWhite, kGray, kBlack };
  std::vector<std::uint8_t> color(nodes_.size(), kWhite);
  std::vector<std::pair<NodeId, int>> stack;  // (node, next-successor-index)
  stack.emplace_back(root_, 0);
  color[static_cast<std::size_t>(root_)] = kGray;
  while (!stack.empty()) {
    auto& [id, si] = stack.back();
    const SNode& n = nodes_[static_cast<std::size_t>(id)];
    NodeId succ = kNoNode;
    if (n.kind == NodeKind::kTest) {
      if (si == 0) succ = n.next;
      else if (si == 1) succ = n.next_else;
    } else if (n.kind != NodeKind::kEnd && si == 0) {
      succ = n.next;
    }
    ++si;
    if (succ == kNoNode) {
      color[static_cast<std::size_t>(id)] = kBlack;
      stack.pop_back();
      continue;
    }
    auto& c = color[static_cast<std::size_t>(succ)];
    if (c == kGray) return "s-graph contains a cycle through node " +
                           std::to_string(succ);
    if (c == kWhite) {
      c = kGray;
      stack.emplace_back(succ, 0);
    }
  }
  return {};
}

std::vector<std::vector<NodeId>> SGraph::enumerate_paths(
    std::size_t cap) const {
  std::vector<std::vector<NodeId>> out;
  std::vector<NodeId> cur;
  // Explicit stack of (node, branch-choice) keeps this iterative.
  struct Frame {
    NodeId id;
    int choice;  // for Test: 0 = then pending, 1 = else pending, 2 = done
  };
  std::vector<Frame> stack{{root_, 0}};
  cur.push_back(root_);
  while (!stack.empty() && out.size() < cap) {
    Frame& f = stack.back();
    const SNode& n = nodes_[static_cast<std::size_t>(f.id)];
    NodeId succ = kNoNode;
    if (n.kind == NodeKind::kEnd) {
      out.push_back(cur);
      stack.pop_back();
      cur.pop_back();
      continue;
    }
    if (n.kind == NodeKind::kTest) {
      if (f.choice == 0) succ = n.next;
      else if (f.choice == 1) succ = n.next_else;
    } else {
      if (f.choice == 0) succ = n.next;
    }
    ++f.choice;
    if (succ == kNoNode) {
      stack.pop_back();
      cur.pop_back();
      continue;
    }
    stack.push_back({succ, 0});
    cur.push_back(succ);
  }
  return out;
}

}  // namespace socpower::cfsm
