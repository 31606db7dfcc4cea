#include "hw/gatesim.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "telemetry/registry.hpp"

namespace socpower::hw {

namespace {

/// 8-bit truth table of a cell: bit (a | b << 1 | c << 2) is its output.
std::uint32_t truth_table(GateType t) {
  std::uint32_t tt = 0;
  for (std::uint32_t idx = 0; idx < 8; ++idx)
    if (eval_gate(t, idx & 1u, (idx >> 1) & 1u, (idx >> 2) & 1u))
      tt |= 1u << idx;
  return tt;
}

}  // namespace

GateSim::GateSim(const Netlist* netlist, TechParams tech,
                 ElectricalParams params)
    : netlist_(netlist), tech_(tech), params_(params) {
  std::string err;
  Levelization lv = netlist_->levelize(&err);
  if (!err.empty()) {
    // Checked in every build type: under NDEBUG a cyclic netlist would pass
    // the old assert and then silently simulate garbage (the level sweep
    // never converges to the fixpoint the energy accounting assumes).
    std::fprintf(stderr, "GateSim: %s — refusing to simulate\n", err.c_str());
    std::abort();
  }
  if (netlist_->net_count() >= (std::size_t{1} << 24)) {
    std::fprintf(stderr, "GateSim: %zu nets exceed the 2^24 kernel limit\n",
                 netlist_->net_count());
    std::abort();
  }

  // Event-driven evaluation (a la SIS: only gates whose inputs changed are
  // re-evaluated), with everything the sweep needs precomputed here: flat
  // gates with truth tables, stored in level order (so settle() is one pass
  // over them and a level's gates sit together), consumers tagged with
  // their level, and one work-slot range per level.
  const auto& gates = netlist_->gates();
  level_begin_.assign(lv.num_levels + 1, 0);
  for (const std::uint32_t l : lv.level) ++level_begin_[l + 1];
  for (std::uint32_t l = 0; l < lv.num_levels; ++l)
    level_begin_[l + 1] += level_begin_[l];
  // Kernel index of each netlist gate: by level, then by netlist index.
  std::vector<std::uint32_t> kernel_index(gates.size());
  {
    std::vector<std::uint32_t> next(level_begin_.begin(),
                                    level_begin_.end() - 1);
    for (std::size_t gi = 0; gi < gates.size(); ++gi)
      kernel_index[gi] = next[lv.level[gi]]++;
  }
  const auto const0 = static_cast<std::uint32_t>(netlist_->const0());
  gates_.resize(gates.size());
  for (std::size_t gi = 0; gi < gates.size(); ++gi) {
    const Gate& g = gates[gi];
    FlatGate& f = gates_[kernel_index[gi]];
    for (int i = 0; i < 3; ++i)
      f.in[i] = g.in[i] == kNoNet ? const0
                                  : static_cast<std::uint32_t>(g.in[i]);
    f.out_tt = static_cast<std::uint32_t>(g.out) << 8 | truth_table(g.type);
  }
  consumer_offsets_ = std::move(lv.consumer_offsets);
  consumers_.resize(lv.consumers.size());
  for (std::size_t c = 0; c < lv.consumers.size(); ++c)
    consumers_[c] = {kernel_index[lv.consumers[c]], lv.level[lv.consumers[c]]};
  // Work slots: level l's gates plus one spare slot each below it.
  for (std::uint32_t l = 0; l <= lv.num_levels; ++l) level_begin_[l] += l;
  work_.assign(level_begin_.back(), 0);
  level_fill_.assign(level_begin_.begin(), level_begin_.end() - 1);
  gate_dirty_.assign(gates.size(), 0);

  net_energy_.resize(netlist_->net_count());
  for (std::size_t n = 0; n < netlist_->net_count(); ++n)
    net_energy_[n] = params_.switch_energy(
        netlist_->net_capacitance(static_cast<NetId>(n), tech_));
  value_.assign(netlist_->net_count(), 0);
  input_next_.assign(netlist_->primary_inputs().size(), 0);
  latch_next_.assign(netlist_->dffs().size(), 0);
  latch_marks_.reserve(netlist_->dffs().size());
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
  const std::size_t in_range =
      first_input_index < input_next_.size()
          ? std::min<std::size_t>(width, input_next_.size() - first_input_index)
          : 0;
  for (std::size_t b = 0; b < in_range; ++b)
    input_next_[first_input_index + b] =
        static_cast<std::uint8_t>((value >> b) & 1u);
  dropped_input_writes_ += width - in_range;
}

void GateSim::mark_consumers_dirty(std::uint32_t net) {
  const Consumer* c = consumers_.data() + consumer_offsets_[net];
  const Consumer* const end = consumers_.data() + consumer_offsets_[net + 1];
  std::uint32_t* const fill = level_fill_.data();
  std::uint32_t lo = dirty_lo_;
  std::uint32_t hi = dirty_hi_;
  for (; c != end; ++c) {
    work_[fill[c->level]] = c->gate;
    fill[c->level] += gate_dirty_[c->gate] ^ 1u;
    gate_dirty_[c->gate] = 1;
    lo = std::min(lo, c->level);
    hi = std::max(hi, c->level);
  }
  dirty_lo_ = lo;
  dirty_hi_ = hi;
}

void GateSim::mark_latch_consumers() {
  for (const std::uint32_t net : latch_marks_) mark_consumers_dirty(net);
  latch_marks_.clear();
}

void GateSim::drain_dirty() {
  latch_marks_.clear();
  for (std::uint32_t lvl = dirty_lo_; lvl <= dirty_hi_; ++lvl) {
    for (std::uint32_t s = level_begin_[lvl]; s < level_fill_[lvl]; ++s)
      gate_dirty_[work_[s]] = 0;
    level_fill_[lvl] = level_begin_[lvl];
  }
  dirty_lo_ = kNoLevel;
  dirty_hi_ = 0;
}

CycleResult GateSim::step() {
  // Commit order is what makes the energy sum bit-reproducible: PIs in index
  // order, then each level's work list in insertion order, then DFFs in
  // declaration order. Commits only record toggled nets; the switching
  // energy is accumulated in one pass at the end of the step from the
  // cached per-net switch energies, in that same order.
  mark_latch_consumers();  // the previous clock edge's marks come first
  toggled_.clear();
  std::uint8_t* const value = value_.data();
  auto commit = [&](std::uint32_t net, std::uint8_t nv) {
    if (value[net] != nv) {
      value[net] = nv;
      toggled_.push_back(static_cast<NetId>(net));
      mark_consumers_dirty(net);
    }
  };

  // Apply primary inputs.
  const auto& pis = netlist_->primary_inputs();
  for (std::size_t i = 0; i < pis.size(); ++i)
    commit(static_cast<std::uint32_t>(pis[i]), input_next_[i]);

  // Event-driven combinational propagation, level by level over the marked
  // range only. Gates marked dirty by a commit always sit at a strictly
  // higher level, so a single sweep suffices: a level's work list is final
  // when the sweep reaches it, and dirty_hi_ only grows ahead of it.
  for (std::uint32_t lvl = dirty_lo_; lvl <= dirty_hi_; ++lvl) {
    const std::uint32_t begin = level_begin_[lvl];
    const std::uint32_t end = level_fill_[lvl];
    for (std::uint32_t s = begin; s < end; ++s) {
      const std::uint32_t gi = work_[s];
      gate_dirty_[gi] = 0;
      const FlatGate& g = gates_[gi];
      const unsigned idx = value[g.in[0]] | value[g.in[1]] << 1 |
                           value[g.in[2]] << 2;
      commit(g.out_tt >> 8, static_cast<std::uint8_t>((g.out_tt >> idx) & 1u));
    }
    gates_evaluated_ += end - begin;
    level_fill_[lvl] = begin;
  }
  dirty_lo_ = kNoLevel;
  dirty_hi_ = 0;

  // Clock edge: latch DFFs. Q toggles are billed this cycle; the dirty marks
  // they leave are laid down, in commit order, when the simulator next
  // needs them (mark_latch_consumers), so a cache replay that follows never
  // pays for marks it would drain. D values are snapshot into a member
  // buffer first (commits must not observe each other within the same
  // edge).
  const auto& dffs = netlist_->dffs();
  latch_begin_ = toggled_.size();
  for (std::size_t i = 0; i < dffs.size(); ++i)
    latch_next_[i] = value[static_cast<std::size_t>(dffs[i].d)];
  for (std::size_t i = 0; i < dffs.size(); ++i) {
    const auto q = static_cast<std::uint32_t>(dffs[i].q);
    if (value[q] != latch_next_[i]) {
      value[q] = latch_next_[i];
      toggled_.push_back(static_cast<NetId>(q));
      latch_marks_.push_back(q);
    }
  }

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
  //  3. Queue the memoized latch-phase toggles as the pending clock-edge
  //     marks, in stored commit order — once laid down, the per-level work
  //     lists are element-for-element identical to the post-step() lists,
  //     so a subsequent miss evaluates gates (and therefore commits
  //     toggles, and therefore sums energies) in exactly the same order as
  //     the uncached run.
  // Energy is the double the miss computed; counters advance as a real
  // step() would (gates_evaluated_ intentionally does not — the skipped
  // evaluations are the win, and the cache reports them separately).
  drain_dirty();
  for (const NetId net : toggles) value_[static_cast<std::size_t>(net)] ^= 1;
  latch_marks_.assign(
      toggles.begin() + static_cast<std::ptrdiff_t>(latch_begin),
      toggles.end());
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
  assert(n != netlist_->const0() && n != netlist_->const1());
  auto& cur = value_[static_cast<std::size_t>(n)];
  const std::uint8_t nv = value ? 1 : 0;
  if (cur != nv) {
    cur = nv;
    forced_ = true;
    mark_latch_consumers();  // keep mark order: clock edge, then forces
    mark_consumers_dirty(static_cast<std::uint32_t>(n));
  }
}

void GateSim::settle() {
  std::uint8_t* const value = value_.data();
  for (const FlatGate& g : gates_) {  // level order
    const unsigned idx = value[g.in[0]] | value[g.in[1]] << 1 |
                         value[g.in[2]] << 2;
    value[g.out_tt >> 8] = static_cast<std::uint8_t>((g.out_tt >> idx) & 1u);
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
  drain_dirty();
}

}  // namespace socpower::hw
