#include "hw/gatesim.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "telemetry/registry.hpp"

namespace socpower::hw {

GateSim::GateSim(const Netlist* netlist, TechParams tech,
                 ElectricalParams params)
    : netlist_(netlist), tech_(tech), params_(params) {
  std::string err;
  topo_ = netlist_->levelize(&err);
  if (!err.empty()) {
    // Checked in every build type: under NDEBUG a cyclic netlist would pass
    // the old assert and then silently simulate garbage (the level sweep
    // never converges to the fixpoint the energy accounting assumes).
    std::fprintf(stderr, "GateSim: %s — refusing to simulate\n", err.c_str());
    std::abort();
  }

  // Topological levels and per-net consumer lists for event-driven
  // evaluation (a la SIS: only gates whose inputs changed are re-evaluated).
  // Consumers are stored CSR-flattened (offsets + one flat gate-index
  // array): the step() hot loop walks one contiguous slice per toggled net
  // instead of chasing per-net vector headers.
  const auto& gates = netlist_->gates();
  gate_level_.assign(gates.size(), 0);
  std::vector<int> driver(netlist_->net_count(), -1);
  for (std::size_t gi = 0; gi < gates.size(); ++gi)
    driver[static_cast<std::size_t>(gates[gi].out)] = static_cast<int>(gi);
  consumer_offsets_.assign(netlist_->net_count() + 1, 0);
  for (const Gate& g : gates)
    for (int i = 0; i < gate_arity(g.type); ++i)
      ++consumer_offsets_[static_cast<std::size_t>(g.in[i]) + 1];
  for (std::size_t n = 1; n < consumer_offsets_.size(); ++n)
    consumer_offsets_[n] += consumer_offsets_[n - 1];
  consumer_gates_.resize(consumer_offsets_.back());
  {
    std::vector<std::uint32_t> fill(consumer_offsets_.begin(),
                                    consumer_offsets_.end() - 1);
    for (std::size_t gi = 0; gi < gates.size(); ++gi) {
      const Gate& g = gates[gi];
      for (int i = 0; i < gate_arity(g.type); ++i)
        consumer_gates_[fill[static_cast<std::size_t>(g.in[i])]++] =
            static_cast<std::uint32_t>(gi);
    }
  }
  for (const std::size_t gi : topo_) {
    const Gate& g = gates[gi];
    unsigned lvl = 0;
    for (int i = 0; i < gate_arity(g.type); ++i) {
      const int drv = driver[static_cast<std::size_t>(g.in[i])];
      if (drv >= 0)
        lvl = std::max(lvl, gate_level_[static_cast<std::size_t>(drv)] + 1);
    }
    gate_level_[gi] = lvl;
    num_levels_ = std::max(num_levels_, lvl + 1);
  }
  level_dirty_.assign(num_levels_, {});
  gate_dirty_.assign(gates.size(), 0);

  net_cap_.resize(netlist_->net_count());
  net_energy_.resize(netlist_->net_count());
  for (std::size_t n = 0; n < netlist_->net_count(); ++n) {
    net_cap_[n] = netlist_->net_capacitance(static_cast<NetId>(n), tech_);
    net_energy_[n] = params_.switch_energy(net_cap_[n]);
  }
  value_.assign(netlist_->net_count(), 0);
  input_next_.assign(netlist_->primary_inputs().size(), 0);
  toggled_.reserve(netlist_->net_count());
  latch_next_.assign(netlist_->dffs().size(), 0);
  clock_energy_per_cycle_ =
      params_.switch_energy(tech_.clock_cap_per_dff_f) *
      static_cast<double>(netlist_->dff_count());
  reset();
}

void GateSim::set_input(std::size_t input_index, bool value) {
  // Checked in every build type (the PowerTrace::record convention): a bad
  // staging index must become a counted drop, not an out-of-bounds write.
  if (input_index >= input_next_.size()) {
    ++dropped_input_writes_;
    return;
  }
  input_next_[input_index] = value ? 1 : 0;
}

void GateSim::set_input_word(std::size_t first_input_index,
                             std::uint64_t value, unsigned width) {
  for (unsigned b = 0; b < width; ++b)
    set_input(first_input_index + b, (value >> b) & 1u);
}

void GateSim::mark_consumers_dirty(NetId net) {
  const std::uint32_t begin = consumer_offsets_[static_cast<std::size_t>(net)];
  const std::uint32_t end = consumer_offsets_[static_cast<std::size_t>(net) + 1];
  for (std::uint32_t ci = begin; ci < end; ++ci) {
    const std::uint32_t gi = consumer_gates_[ci];
    if (!gate_dirty_[gi]) {
      gate_dirty_[gi] = 1;
      level_dirty_[gate_level_[gi]].push_back(gi);
    }
  }
}

CycleResult GateSim::step() {
  // Commits only record toggled nets; the switching energy is accumulated in
  // one pass at the end of the step from the cached per-net switch energies
  // (same nets, same order, so the reported energy is bit-identical to the
  // old multiply-per-commit form).
  toggled_.clear();
  auto commit = [&](NetId net, bool v) {
    auto& cur = value_[static_cast<std::size_t>(net)];
    const std::uint8_t nv = v ? 1 : 0;
    if (cur != nv) {
      cur = nv;
      toggled_.push_back(net);
      mark_consumers_dirty(net);
    }
  };

  // Apply primary inputs.
  const auto& pis = netlist_->primary_inputs();
  for (std::size_t i = 0; i < pis.size(); ++i)
    commit(pis[i], input_next_[i] != 0);

  // Event-driven combinational propagation, level by level. Gates marked
  // dirty by a commit always sit at a strictly higher level, so a single
  // sweep suffices.
  const auto& gates = netlist_->gates();
  for (unsigned lvl = 0; lvl < num_levels_; ++lvl) {
    auto& work = level_dirty_[lvl];
    for (std::size_t wi = 0; wi < work.size(); ++wi) {
      const std::size_t gi = work[wi];
      gate_dirty_[gi] = 0;
      const Gate& g = gates[gi];
      const bool a = value_[static_cast<std::size_t>(g.in[0])] != 0;
      const bool b = g.in[1] == kNoNet
                         ? false
                         : value_[static_cast<std::size_t>(g.in[1])] != 0;
      const bool c = g.in[2] == kNoNet
                         ? false
                         : value_[static_cast<std::size_t>(g.in[2])] != 0;
      ++gates_evaluated_;
      commit(g.out, eval_gate(g.type, a, b, c));
    }
    work.clear();
  }

  // Clock edge: latch DFFs. Q toggles are billed this cycle; the dirty marks
  // they leave are consumed by the next step's sweep. D values are snapshot
  // into a member buffer first (commits must not observe each other within
  // the same edge).
  const auto& dffs = netlist_->dffs();
  latch_begin_ = toggled_.size();
  for (std::size_t i = 0; i < dffs.size(); ++i)
    latch_next_[i] = value_[static_cast<std::size_t>(dffs[i].d)];
  for (std::size_t i = 0; i < dffs.size(); ++i)
    commit(dffs[i].q, latch_next_[i] != 0);

  CycleResult r;
  r.toggles = toggled_.size();
  for (const NetId net : toggled_)
    r.energy += net_energy_[static_cast<std::size_t>(net)];
  r.energy += clock_energy_per_cycle_;
  ++cycles_;
  total_energy_ += r.energy;
  static telemetry::Counter& steps =
      telemetry::registry().counter("gatesim.steps");
  static telemetry::Counter& toggles =
      telemetry::registry().counter("gatesim.toggles");
  steps.add();
  toggles.add(r.toggles);
  return r;
}

CycleResult GateSim::apply_cached_reaction(std::span<const NetId> toggles,
                                           std::size_t latch_begin,
                                           Joules energy) {
  // Restore the exact state a real step() from here would have produced:
  //  1. Drain every pending dirty mark. A real step() consumes them all in
  //     its level sweep, and the only marks it leaves behind are those of
  //     its own clock-edge Q toggles.
  //  2. Flip the memoized toggled nets (a toggle is its own inverse, so a
  //     flip lands on exactly the values the replayed step committed).
  //  3. Re-mark the consumers of the memoized latch-phase toggles, in stored
  //     commit order — the per-level work lists end up element-for-element
  //     identical to the post-step() lists, so a subsequent miss evaluates
  //     gates (and therefore commits toggles, and therefore sums energies)
  //     in exactly the same order as the uncached run.
  // Energy is the double the miss computed; counters advance as a real
  // step() would (gates_evaluated_ intentionally does not — the skipped
  // evaluations are the win, and the cache reports them separately).
  for (auto& work : level_dirty_) {
    for (const std::size_t gi : work) gate_dirty_[gi] = 0;
    work.clear();
  }
  for (const NetId net : toggles) value_[static_cast<std::size_t>(net)] ^= 1;
  for (std::size_t i = latch_begin; i < toggles.size(); ++i)
    mark_consumers_dirty(toggles[i]);
  CycleResult r;
  r.toggles = toggles.size();
  r.energy = energy;
  ++cycles_;
  total_energy_ += r.energy;
  static telemetry::Counter& steps =
      telemetry::registry().counter("gatesim.steps");
  static telemetry::Counter& tgl =
      telemetry::registry().counter("gatesim.toggles");
  steps.add();
  tgl.add(r.toggles);
  return r;
}

bool GateSim::net_value(NetId n) const {
  assert(n >= 0 && static_cast<std::size_t>(n) < value_.size());
  return value_[static_cast<std::size_t>(n)] != 0;
}

std::uint64_t GateSim::read_word(std::size_t first_output_index,
                                 unsigned width) const {
  // Clamped in every build type: out-of-range output bits read as 0 instead
  // of indexing past the output table under NDEBUG.
  const auto& outs = netlist_->outputs();
  std::uint64_t v = 0;
  for (unsigned b = 0; b < width; ++b) {
    if (first_output_index + b >= outs.size()) break;
    if (net_value(outs[first_output_index + b].first)) v |= 1ull << b;
  }
  return v;
}

void GateSim::force_net(NetId n, bool value) {
  assert(n >= 0 && static_cast<std::size_t>(n) < value_.size());
  auto& cur = value_[static_cast<std::size_t>(n)];
  const std::uint8_t nv = value ? 1 : 0;
  if (cur != nv) {
    cur = nv;
    forced_ = true;
    mark_consumers_dirty(n);
  }
}

void GateSim::settle() {
  const auto& gates = netlist_->gates();
  for (const std::size_t gi : topo_) {
    const Gate& g = gates[gi];
    const bool a = value_[static_cast<std::size_t>(g.in[0])] != 0;
    const bool b = g.in[1] == kNoNet
                       ? false
                       : value_[static_cast<std::size_t>(g.in[1])] != 0;
    const bool c = g.in[2] == kNoNet
                       ? false
                       : value_[static_cast<std::size_t>(g.in[2])] != 0;
    value_[static_cast<std::size_t>(g.out)] =
        eval_gate(g.type, a, b, c) ? 1 : 0;
  }
}

void GateSim::reset() {
  ++resets_;
  forced_ = false;  // reset rebuilds a canonical state; prior forces are moot
  value_.assign(netlist_->net_count(), 0);
  value_[static_cast<std::size_t>(netlist_->const1())] = 1;
  for (const Dff& ff : netlist_->dffs())
    value_[static_cast<std::size_t>(ff.q)] = ff.init ? 1 : 0;
  // Settle combinational logic so the first step() doesn't bill the
  // power-on transient as switching activity.
  settle();
  for (auto& w : level_dirty_) w.clear();
  gate_dirty_.assign(gate_dirty_.size(), 0);
  // const1 consumers must still be (re)evaluated once after a reset if any
  // input changes; the settle above already fixed their values.
}

}  // namespace socpower::hw
