// CFSM (Codesign Finite State Machine) processes and networks.
//
// A Cfsm owns its variable declarations, an expression arena and an s-graph
// transition function. A Network owns the global event namespace and the set
// of processes, and knows which processes are sensitive to which events.
// Structure (this file) is separated from runtime state (CfsmState) so one
// network description can be simulated many times with different
// implementation mappings and parameters — the paper's iterative
// design-space exploration loop re-runs power co-estimation without
// recompiling the system description (Section 3).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cfsm/expr.hpp"
#include "cfsm/sgraph.hpp"

namespace socpower::cfsm {

using CfsmId = std::int32_t;
inline constexpr CfsmId kNoCfsm = -1;

struct VarDecl {
  std::string name;
  std::int32_t init = 0;
};

struct EventDecl {
  std::string name;
};

/// Runtime variable store for one process instance.
struct CfsmState {
  std::vector<std::int32_t> vars;
};

/// The set of input events present for one reaction, with their values.
class ReactionInputs {
 public:
  void clear();
  void set(EventId e, std::int32_t value);
  // Inline: the s-graph evaluator and HW input staging read events on
  // every reaction, and the list holds a handful of entries.
  [[nodiscard]] bool present(EventId e) const {
    for (const auto& [ev, val] : events_)
      if (ev == e) return true;
    return false;
  }
  /// The event's value, 0 when it is absent.
  [[nodiscard]] std::int32_t value(EventId e) const {
    for (const auto& [ev, val] : events_)
      if (ev == e) return val;
    return 0;
  }
  [[nodiscard]] const std::vector<std::pair<EventId, std::int32_t>>& all()
      const {
    return events_;
  }
  /// The list itself, for the wire decoder (dist/wire.hpp), which fills it
  /// in the order the encoder read it from all().
  [[nodiscard]] std::vector<std::pair<EventId, std::int32_t>>& all() {
    return events_;
  }
  [[nodiscard]] bool empty() const { return events_.empty(); }

 private:
  std::vector<std::pair<EventId, std::int32_t>> events_;
};

class Cfsm {
 public:
  Cfsm(CfsmId id, std::string name);

  [[nodiscard]] CfsmId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  // -- interface declaration -----------------------------------------------
  void add_input(EventId e);
  void add_output(EventId e);
  /// Declares an input that does NOT trigger a reaction by itself (e.g. the
  /// TIME event sampled by the consumer of Figure 1: its value is read when
  /// another trigger fires). POLIS calls the value part of such an event its
  /// associated "valued event" storage.
  void add_sampled_input(EventId e);
  void set_reset_event(EventId e) { reset_event_ = e; }
  VarId add_var(std::string name, std::int32_t init = 0);

  [[nodiscard]] const std::vector<EventId>& inputs() const { return inputs_; }
  [[nodiscard]] const std::vector<EventId>& sampled_inputs() const {
    return sampled_inputs_;
  }
  [[nodiscard]] const std::vector<EventId>& outputs() const {
    return outputs_;
  }
  [[nodiscard]] std::optional<EventId> reset_event() const {
    return reset_event_;
  }
  [[nodiscard]] const std::vector<VarDecl>& vars() const { return vars_; }
  [[nodiscard]] bool listens_to(EventId e) const;
  [[nodiscard]] bool triggers_on(EventId e) const;

  // -- behavior -------------------------------------------------------------
  [[nodiscard]] ExprArena& arena() { return arena_; }
  [[nodiscard]] const ExprArena& arena() const { return arena_; }
  [[nodiscard]] SGraph& graph() { return *graph_; }
  [[nodiscard]] const SGraph& graph() const { return *graph_; }

  /// Fresh runtime state with variables at their init values.
  [[nodiscard]] CfsmState make_state() const;
  void reset_state(CfsmState& st) const;

  /// Execute one reaction: reads `inputs`, updates `st`, fills `out` with
  /// the emissions and the executed node trace (cleared first, capacity
  /// reused). When the reset event is present the state is re-initialized,
  /// the s-graph is NOT run (POLIS "watching RESET" semantics) and `out` is
  /// left empty.
  void react(const ReactionInputs& inputs, CfsmState& st, Reaction& out) const;
  /// Convenience for one-off callers (tests, tools): a fresh Reaction.
  Reaction react(const ReactionInputs& inputs, CfsmState& st) const {
    Reaction r;
    react(inputs, st, r);
    return r;
  }

 private:
  CfsmId id_;
  std::string name_;
  std::vector<EventId> inputs_;          // triggering inputs
  std::vector<EventId> sampled_inputs_;  // value-only inputs
  std::vector<EventId> outputs_;
  std::optional<EventId> reset_event_;
  std::vector<VarDecl> vars_;
  ExprArena arena_;
  std::unique_ptr<SGraph> graph_;
};

class Network {
 public:
  EventId declare_event(std::string name);
  [[nodiscard]] EventId event_id(const std::string& name) const;  // -1 if absent
  [[nodiscard]] const std::string& event_name(EventId e) const;
  [[nodiscard]] std::size_t event_count() const { return events_.size(); }

  Cfsm& add_cfsm(std::string name);
  [[nodiscard]] std::size_t cfsm_count() const { return cfsms_.size(); }
  [[nodiscard]] Cfsm& cfsm(CfsmId id);
  [[nodiscard]] const Cfsm& cfsm(CfsmId id) const;
  [[nodiscard]] CfsmId cfsm_id(const std::string& name) const;  // -1 if absent

  /// Processes whose trigger set contains `e`.
  [[nodiscard]] std::vector<CfsmId> receivers(EventId e) const;
  /// Processes that merely sample `e`'s value.
  [[nodiscard]] std::vector<CfsmId> samplers(EventId e) const;

  /// Validates every process's s-graph; empty string on success.
  [[nodiscard]] std::string validate() const;

 private:
  std::vector<EventDecl> events_;
  std::vector<std::unique_ptr<Cfsm>> cfsms_;
};

}  // namespace socpower::cfsm
