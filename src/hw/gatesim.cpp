#include "hw/gatesim.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>

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

GateProgram::GateProgram(const Netlist* netlist, TechParams tech,
                         ElectricalParams params)
    : netlist_(netlist) {
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
  // gates with truth tables and their output's consumer range, stored in
  // level order (so settle() is one pass over them and a level's gates sit
  // together), consumers tagged with their level, and one work-slot range
  // per level. A gate's level is its netlist level + 1: level kLatchLevel
  // (0) holds the DFFs, DFF i being a consumer of its D net with kernel
  // index gates.size() + i.
  const auto& gates = netlist_->gates();
  const auto& dffs = netlist_->dffs();
  const auto n_gates = static_cast<std::uint32_t>(gates.size());
  level_begin_.assign(lv.num_levels + 2, 0);
  level_begin_[1] = static_cast<std::uint32_t>(dffs.size());
  for (const std::uint32_t l : lv.level) ++level_begin_[l + 2];
  for (std::uint32_t l = 0; l <= lv.num_levels; ++l)
    level_begin_[l + 1] += level_begin_[l];
  // Kernel index of each netlist gate: by level, then by netlist index.
  std::vector<std::uint32_t> kernel_index(gates.size());
  {
    std::vector<std::uint32_t> next(level_begin_.begin() + 1,
                                    level_begin_.end() - 1);
    for (std::uint32_t& n : next) n -= static_cast<std::uint32_t>(dffs.size());
    for (std::size_t gi = 0; gi < gates.size(); ++gi)
      kernel_index[gi] = next[lv.level[gi]]++;
  }
  // Consumer lists: each net's gates as levelize() lists them, then the
  // DFFs whose D it is (levelize's offsets shift by the DFFs of lower nets).
  std::vector<std::uint32_t> dffs_by_d(dffs.size());
  for (std::uint32_t i = 0; i < dffs_by_d.size(); ++i) dffs_by_d[i] = i;
  std::stable_sort(dffs_by_d.begin(), dffs_by_d.end(),
                   [&](std::uint32_t x, std::uint32_t y) {
                     return dffs[x].d < dffs[y].d;
                   });
  consumer_offsets_ = std::move(lv.consumer_offsets);
  consumers_.resize(lv.consumers.size() + dffs.size());
  std::uint32_t shift = 0;
  for (std::size_t n = 0, k = 0; n < netlist_->net_count(); ++n) {
    const std::uint32_t begin = consumer_offsets_[n];
    const std::uint32_t end = consumer_offsets_[n + 1];
    consumer_offsets_[n] = begin + shift;
    for (std::uint32_t c = begin; c < end; ++c)
      consumers_[c + shift] = {kernel_index[lv.consumers[c]],
                               lv.level[lv.consumers[c]] + 1};
    for (; k < dffs_by_d.size() &&
           static_cast<std::size_t>(dffs[dffs_by_d[k]].d) == n;
         ++k)
      consumers_[end + shift++] = {n_gates + dffs_by_d[k], kLatchLevel};
  }
  consumer_offsets_.back() += shift;
  const auto const0 = static_cast<std::uint32_t>(netlist_->const0());
  gates_.resize(gates.size());
  for (std::size_t gi = 0; gi < gates.size(); ++gi) {
    const Gate& g = gates[gi];
    FlatGate& f = gates_[kernel_index[gi]];
    for (int i = 0; i < 3; ++i)
      f.in[i] = g.in[i] == kNoNet ? const0
                                  : static_cast<std::uint32_t>(g.in[i]);
    const auto out = static_cast<std::uint32_t>(g.out);
    f.out_tt = out << 8 | truth_table(g.type);
    f.consumers_begin = consumer_offsets_[out];
    f.consumers_end = consumer_offsets_[out + 1];
  }
  // Work slots: each level's gates (the latch level's DFFs) plus one spare
  // slot each below it.
  for (std::uint32_t l = 0; l < level_begin_.size(); ++l) level_begin_[l] += l;

  net_energy_.resize(netlist_->net_count());
  for (std::size_t n = 0; n < netlist_->net_count(); ++n)
    net_energy_[n] = params.switch_energy(
        netlist_->net_capacitance(static_cast<NetId>(n), tech));
  clock_energy_per_cycle_ = params.switch_energy(tech.clock_cap_per_dff_f) *
                            static_cast<double>(netlist_->dff_count());
}

GateSim::GateSim(const Netlist* netlist, TechParams tech,
                 ElectricalParams params)
    : GateSim(std::make_shared<const GateProgram>(netlist, tech, params)) {}

GateSim::GateSim(std::shared_ptr<const GateProgram> program)
    : program_(std::move(program)) {
  const GateProgram& p = *program_;
  const Netlist& nl = *p.netlist_;
  work_.assign(p.level_begin_.back(), 0);
  level_fill_.assign(p.level_begin_.begin(), p.level_begin_.end() - 1);
  // The edge reads the DFF flags eight at a time.
  gate_dirty_.assign(p.gates_.size() + (nl.dff_count() + 7) / 8 * 8, 0);
  value_.assign(nl.net_count(), 0);
  input_next_.assign(nl.primary_inputs().size(), 0);
  toggled_ = std::make_unique_for_overwrite<NetId[]>(nl.net_count());
  latch_marks_.reserve(nl.dff_count());
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
  static_assert(std::endian::native == std::endian::little,
                "staging writes bit b of a byte to the b-th input");
  const std::size_t in_range =
      first_input_index < input_next_.size()
          ? std::min<std::size_t>(width, input_next_.size() - first_input_index)
          : 0;
  dropped_input_writes_ += width - in_range;
  if (in_range == 0) return;
  std::uint8_t* const out = input_next_.data() + first_input_index;
  std::size_t b = 0;
  // Eight inputs per store, the inverse of the reaction cache's pack_bytes:
  // copy the byte into every lane, keep bit i in lane i, and turn each
  // nonzero lane into 1 (adding 0x7f carries a nonzero lane into its top
  // bit and never out of the lane).
  for (; b + 8 <= in_range; b += 8) {
    std::uint64_t x = ((value >> b) & 0xffu) * 0x0101010101010101ull;
    x &= 0x8040201008040201ull;
    x = ((x + 0x7f7f7f7f7f7f7f7full) >> 7) & 0x0101010101010101ull;
    std::memcpy(out + b, &x, sizeof x);
  }
  for (; b < in_range; ++b)
    out[b] = static_cast<std::uint8_t>((value >> b) & 1u);
}

void GateSim::mark_consumers_dirty(std::uint32_t net) {
  const GateProgram& p = *program_;
  const Consumer* c = p.consumers_.data() + p.consumer_offsets_[net];
  const Consumer* const end =
      p.consumers_.data() + p.consumer_offsets_[net + 1];
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
  const std::vector<std::uint32_t>& level_begin = program_->level_begin_;
  latch_marks_.clear();
  for (std::uint32_t lvl = dirty_lo_; lvl <= dirty_hi_; ++lvl) {
    for (std::uint32_t s = level_begin[lvl]; s < level_fill_[lvl]; ++s)
      gate_dirty_[work_[s]] = 0;
    level_fill_[lvl] = level_begin[lvl];
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
  // Every array base, the program's and the state's, and the dirty range
  // live in locals: the uint8_t value and dirty stores may alias any member,
  // which would otherwise be reloaded after each of them.
  const GateProgram& p = *program_;
  std::uint8_t* const value = value_.data();
  std::uint8_t* const dirty = gate_dirty_.data();
  std::uint32_t* const work = work_.data();
  std::uint32_t* const fill = level_fill_.data();
  const std::uint32_t* const level_begin = p.level_begin_.data();
  const FlatGate* const gates = p.gates_.data();
  const Consumer* const consumers = p.consumers_.data();
  const std::uint32_t* const consumer_offsets = p.consumer_offsets_.data();
  NetId* const toggled = toggled_.get();
  std::size_t n_toggled = 0;
  std::uint32_t lo = dirty_lo_;
  std::uint32_t hi = dirty_hi_;

  // A net changed: record the toggle and mark its consumers dirty (the DFFs
  // among them become latch candidates).
  auto toggle = [&](std::uint32_t net, std::uint32_t c, std::uint32_t c_end) {
    toggled[n_toggled++] = static_cast<NetId>(net);
    for (; c != c_end; ++c) {
      const Consumer& k = consumers[c];
      work[fill[k.level]] = k.gate;
      fill[k.level] += dirty[k.gate] ^ 1u;
      dirty[k.gate] = 1;
      lo = std::min(lo, k.level);
      hi = std::max(hi, k.level);
    }
  };

  // Apply primary inputs.
  const NetId* const pis = p.netlist_->primary_inputs().data();
  const std::uint8_t* const staged = input_next_.data();
  const std::size_t n_pis = input_next_.size();
  for (std::size_t i = 0; i < n_pis; ++i) {
    const auto net = static_cast<std::uint32_t>(pis[i]);
    if (value[net] != staged[i]) {
      value[net] = staged[i];
      toggle(net, consumer_offsets[net], consumer_offsets[net + 1]);
    }
  }

  // Event-driven combinational propagation, level by level over the marked
  // gate levels only. Gates marked dirty by a commit always sit at a
  // strictly higher level, so a single sweep suffices: a level's work list
  // is final when the sweep reaches it, and hi only grows ahead of it. DFF
  // marks land below every gate level, so they never widen the sweep.
  std::uint64_t evaluated = 0;
  for (std::uint32_t lvl = std::max(lo, kLatchLevel + 1); lvl <= hi; ++lvl) {
    const std::uint32_t begin = level_begin[lvl];
    const std::uint32_t end = fill[lvl];
    for (std::uint32_t s = begin; s < end; ++s) {
      const std::uint32_t gi = work[s];
      dirty[gi] = 0;
      const FlatGate& g = gates[gi];
      const unsigned idx = value[g.in[0]] | value[g.in[1]] << 1 |
                           value[g.in[2]] << 2;
      const std::uint32_t out = g.out_tt >> 8;
      const auto nv = static_cast<std::uint8_t>((g.out_tt >> idx) & 1u);
      if (value[out] != nv) {
        value[out] = nv;
        toggle(out, g.consumers_begin, g.consumers_end);
      }
    }
    evaluated += end - begin;
    fill[lvl] = begin;
  }
  gates_evaluated_ += evaluated;
  dirty_lo_ = kNoLevel;
  dirty_hi_ = 0;

  // Clock edge: latch the flagged DFFs, in declaration order; an unflagged
  // DFF has Q == D and would not toggle. Every D is read before any Q
  // changes (an edge's commits must not observe each other). Q toggles are
  // billed this cycle; the dirty marks they leave (DFF flags included) are
  // laid down, in commit order, when the simulator next needs them
  // (mark_latch_consumers), so a cache replay that follows never pays for
  // marks it would drain.
  const Dff* const dffs = p.netlist_->dffs().data();
  std::uint8_t* const flags = dirty + p.gates_.size();
  const std::size_t n_dffs = p.netlist_->dffs().size();
  latch_begin_ = n_toggled;
  for (std::size_t i = 0; i < n_dffs; i += 8) {
    std::uint64_t word;
    std::memcpy(&word, flags + i, sizeof word);
    if (word == 0) continue;
    std::memset(flags + i, 0, sizeof word);
    for (; word != 0; word &= word - 1) {  // one set bit per flagged byte
      const Dff& ff = dffs[i + static_cast<std::size_t>(
                                   std::countr_zero(word)) / 8];
      if (value[static_cast<std::size_t>(ff.q)] !=
          value[static_cast<std::size_t>(ff.d)])
        latch_marks_.push_back(static_cast<std::uint32_t>(ff.q));
    }
  }
  fill[kLatchLevel] = level_begin[kLatchLevel];
  for (const std::uint32_t q : latch_marks_) {
    value[q] ^= 1;
    toggled[n_toggled++] = static_cast<NetId>(q);
  }
  toggled_count_ = n_toggled;

  CycleResult r;
  r.toggles = n_toggled;
  const double* const net_energy = p.net_energy_.data();
  for (std::size_t t = 0; t < n_toggled; ++t)
    r.energy += net_energy[static_cast<std::size_t>(toggled[t])];
  r.energy += p.clock_energy_per_cycle_;
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
  //  4. Flag every DFF for the next edge. Draining dropped the flags the
  //     queued marks had set; a full scan cannot latch differently from the
  //     candidates a real step() would leave, and does not depend on them.
  // Energy is the double the miss computed; counters advance as a real
  // step() would (gates_evaluated_ intentionally does not — the skipped
  // evaluations are the win, and the cache reports them separately).
  drain_dirty();
  for (const NetId net : toggles) value_[static_cast<std::size_t>(net)] ^= 1;
  latch_marks_.assign(
      toggles.begin() + static_cast<std::ptrdiff_t>(latch_begin),
      toggles.end());
  latch_all_next_edge();
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
  const auto& outs = netlist().outputs();
  std::uint64_t v = 0;
  for (unsigned b = 0; b < width; ++b) {
    if (first_output_index + b >= outs.size()) break;
    if (net_value(outs[first_output_index + b].first)) v |= 1ull << b;
  }
  return v;
}

void GateSim::force_net(NetId n, bool value) {
  assert(n >= 0 && static_cast<std::size_t>(n) < value_.size());
  assert(n != netlist().const0() && n != netlist().const1());
  auto& cur = value_[static_cast<std::size_t>(n)];
  const std::uint8_t nv = value ? 1 : 0;
  if (cur != nv) {
    cur = nv;
    forced_ = true;
    mark_latch_consumers();  // keep mark order: clock edge, then forces
    mark_consumers_dirty(static_cast<std::uint32_t>(n));
    latch_all_next_edge();
  }
}

void GateSim::latch_all_next_edge() {
  std::fill_n(
      gate_dirty_.begin() + static_cast<std::ptrdiff_t>(program_->gates_.size()),
      netlist().dff_count(), std::uint8_t{1});
}

void GateSim::settle() {
  std::uint8_t* const value = value_.data();
  for (const FlatGate& g : program_->gates_) {  // level order
    const unsigned idx = value[g.in[0]] | value[g.in[1]] << 1 |
                         value[g.in[2]] << 2;
    value[g.out_tt >> 8] = static_cast<std::uint8_t>((g.out_tt >> idx) & 1u);
  }
}

void GateSim::reset() {
  ++resets_;
  forced_ = false;  // reset rebuilds a canonical state; prior forces are moot
  const Netlist& nl = netlist();
  std::fill(value_.begin(), value_.end(), std::uint8_t{0});
  value_[static_cast<std::size_t>(nl.const1())] = 1;
  for (const Dff& ff : nl.dffs())
    value_[static_cast<std::size_t>(ff.q)] = ff.init ? 1 : 0;
  // Settle combinational logic so the first step() doesn't bill the
  // power-on transient as switching activity.
  settle();
  drain_dirty();
  latch_all_next_edge();
}

}  // namespace socpower::hw
