#include "cfsm/cfsm.hpp"

#include <algorithm>
#include <cassert>

namespace socpower::cfsm {

void ReactionInputs::clear() { events_.clear(); }

void ReactionInputs::set(EventId e, std::int32_t value) {
  for (auto& [ev, val] : events_) {
    if (ev == e) {
      val = value;  // latest emission in the same instant wins
      return;
    }
  }
  events_.emplace_back(e, value);
}

namespace {

/// The s-graph's environment for one reaction: reads from (state, inputs),
/// assignments into the state, so writes are immediately visible to later
/// reads — the sequential semantics of an s-graph path.
struct ReactionEnv {
  std::vector<std::int32_t>& vars;
  const ReactionInputs& in;

  [[nodiscard]] std::int32_t var(VarId v) const {
    assert(v >= 0 && static_cast<std::size_t>(v) < vars.size());
    return vars[static_cast<std::size_t>(v)];
  }
  [[nodiscard]] bool event_present(EventId e) const { return in.present(e); }
  [[nodiscard]] std::int32_t event_value(EventId e) const {
    return in.value(e);  // 0 when absent
  }
  void set_var(VarId v, std::int32_t value) {
    assert(v >= 0 && static_cast<std::size_t>(v) < vars.size());
    vars[static_cast<std::size_t>(v)] = value;
  }
};

}  // namespace

Cfsm::Cfsm(CfsmId id, std::string name)
    : id_(id), name_(std::move(name)),
      graph_(std::make_unique<SGraph>(&arena_)) {}

void Cfsm::add_input(EventId e) { inputs_.push_back(e); }
void Cfsm::add_output(EventId e) { outputs_.push_back(e); }
void Cfsm::add_sampled_input(EventId e) { sampled_inputs_.push_back(e); }

VarId Cfsm::add_var(std::string name, std::int32_t init) {
  vars_.push_back({std::move(name), init});
  return static_cast<VarId>(vars_.size() - 1);
}

bool Cfsm::listens_to(EventId e) const {
  return triggers_on(e) ||
         std::find(sampled_inputs_.begin(), sampled_inputs_.end(), e) !=
             sampled_inputs_.end() ||
         (reset_event_ && *reset_event_ == e);
}

bool Cfsm::triggers_on(EventId e) const {
  return std::find(inputs_.begin(), inputs_.end(), e) != inputs_.end();
}

CfsmState Cfsm::make_state() const {
  CfsmState st;
  st.vars.reserve(vars_.size());
  for (const auto& v : vars_) st.vars.push_back(v.init);
  return st;
}

void Cfsm::reset_state(CfsmState& st) const {
  st.vars.clear();
  for (const auto& v : vars_) st.vars.push_back(v.init);
}

void Cfsm::react(const ReactionInputs& inputs, CfsmState& st,
                 Reaction& out) const {
  if (reset_event_ && inputs.present(*reset_event_)) {
    reset_state(st);
    out.emissions.clear();  // empty trace: reset consumes the instant
    out.trace.clear();
    return;
  }
  ReactionEnv env{st.vars, inputs};
  graph_->run(env, out);
}

EventId Network::declare_event(std::string name) {
  assert(event_id(name) < 0 && "duplicate event name");
  events_.push_back({std::move(name)});
  return static_cast<EventId>(events_.size() - 1);
}

EventId Network::event_id(const std::string& name) const {
  for (std::size_t i = 0; i < events_.size(); ++i)
    if (events_[i].name == name) return static_cast<EventId>(i);
  return -1;
}

const std::string& Network::event_name(EventId e) const {
  assert(e >= 0 && static_cast<std::size_t>(e) < events_.size());
  return events_[static_cast<std::size_t>(e)].name;
}

Cfsm& Network::add_cfsm(std::string name) {
  cfsms_.push_back(std::make_unique<Cfsm>(
      static_cast<CfsmId>(cfsms_.size()), std::move(name)));
  return *cfsms_.back();
}

Cfsm& Network::cfsm(CfsmId id) {
  assert(id >= 0 && static_cast<std::size_t>(id) < cfsms_.size());
  return *cfsms_[static_cast<std::size_t>(id)];
}

const Cfsm& Network::cfsm(CfsmId id) const {
  assert(id >= 0 && static_cast<std::size_t>(id) < cfsms_.size());
  return *cfsms_[static_cast<std::size_t>(id)];
}

CfsmId Network::cfsm_id(const std::string& name) const {
  for (const auto& c : cfsms_)
    if (c->name() == name) return c->id();
  return kNoCfsm;
}

std::vector<CfsmId> Network::receivers(EventId e) const {
  std::vector<CfsmId> out;
  for (const auto& c : cfsms_)
    if (c->triggers_on(e) || (c->reset_event() && *c->reset_event() == e))
      out.push_back(c->id());
  return out;
}

std::vector<CfsmId> Network::samplers(EventId e) const {
  std::vector<CfsmId> out;
  for (const auto& c : cfsms_) {
    const auto& s = c->sampled_inputs();
    if (std::find(s.begin(), s.end(), e) != s.end()) out.push_back(c->id());
  }
  return out;
}

std::string Network::validate() const {
  for (const auto& c : cfsms_) {
    std::string err = c->graph().validate();
    if (!err.empty()) return "cfsm '" + c->name() + "': " + err;
  }
  return {};
}

}  // namespace socpower::cfsm
