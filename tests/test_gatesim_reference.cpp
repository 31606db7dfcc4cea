// GateSim's kernel against a reference copy of the straightforward
// event-driven simulator it replaced: one work-list vector per level, a
// switch over the gate type, absent inputs tested against kNoNet. Seeded
// random netlists use every gate type, deep chains, gates reading one net
// twice, constant inputs and DFF feedback; stimulus is interleaved with
// reset(), force_net() and ReactionCache replays, and a fixed shift register
// runs across the same state breaks. Energies must be bitwise
// equal, toggles must commit in the same order, and the number of gate
// evaluations must match (a cache hit counts the evaluations it skipped).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "hw/gatesim.hpp"
#include "hw/netlist.hpp"
#include "hw/reaction_cache.hpp"
#include "util/rng.hpp"

namespace socpower::hw {
namespace {

/// The reference: per-step semantics and commit order of the original
/// GateSim, with none of its precomputation. Commit order: PIs in index
/// order, then each level's work list in insertion order, then DFFs in
/// declaration order.
class ReferenceGateSim {
 public:
  explicit ReferenceGateSim(const Netlist* nl) : nl_(nl) {
    std::string err;
    const Levelization lv = nl_->levelize(&err);
    EXPECT_EQ(err, "");
    topo_ = lv.order;
    const auto& gates = nl_->gates();
    std::vector<int> driver(nl_->net_count(), -1);
    for (std::size_t gi = 0; gi < gates.size(); ++gi)
      driver[static_cast<std::size_t>(gates[gi].out)] = static_cast<int>(gi);
    consumers_.resize(nl_->net_count());
    level_.assign(gates.size(), 0);
    for (std::size_t gi = 0; gi < gates.size(); ++gi)
      for (int i = 0; i < gate_arity(gates[gi].type); ++i)
        consumers_[static_cast<std::size_t>(gates[gi].in[i])].push_back(gi);
    std::size_t num_levels = 0;
    for (const std::size_t gi : topo_) {
      for (int i = 0; i < gate_arity(gates[gi].type); ++i) {
        const int drv = driver[static_cast<std::size_t>(gates[gi].in[i])];
        if (drv >= 0)
          level_[gi] = std::max(level_[gi],
                                level_[static_cast<std::size_t>(drv)] + 1);
      }
      num_levels = std::max<std::size_t>(num_levels, level_[gi] + 1);
    }
    work_.assign(num_levels, {});
    dirty_.assign(nl_->gates().size(), 0);
    const TechParams tech = TechParams::generic_250nm();
    const ElectricalParams params;
    for (std::size_t n = 0; n < nl_->net_count(); ++n)
      net_energy_.push_back(params.switch_energy(
          nl_->net_capacitance(static_cast<NetId>(n), tech)));
    clock_energy_ = params.switch_energy(tech.clock_cap_per_dff_f) *
                    static_cast<double>(nl_->dff_count());
    input_.assign(nl_->primary_inputs().size(), 0);
    reset();
  }

  void set_input(std::size_t i, bool v) { input_[i] = v; }

  void reset() {
    value_.assign(nl_->net_count(), 0);
    value_[static_cast<std::size_t>(nl_->const1())] = 1;
    for (const Dff& ff : nl_->dffs())
      value_[static_cast<std::size_t>(ff.q)] = ff.init;
    for (const std::size_t gi : topo_) eval_into(gi);
    for (auto& w : work_) w.clear();
    dirty_.assign(dirty_.size(), 0);
  }

  void force_net(NetId n, bool v) {
    if (value_[static_cast<std::size_t>(n)] != v) {
      value_[static_cast<std::size_t>(n)] = v;
      mark(n);
    }
  }

  CycleResult step() {
    toggled_.clear();
    const auto& pis = nl_->primary_inputs();
    for (std::size_t i = 0; i < pis.size(); ++i) commit(pis[i], input_[i]);
    for (auto& work : work_) {
      for (std::size_t wi = 0; wi < work.size(); ++wi) {
        dirty_[work[wi]] = 0;
        ++gates_evaluated_;
        commit(nl_->gates()[work[wi]].out, eval(work[wi]));
      }
      work.clear();
    }
    latch_begin_ = toggled_.size();
    std::vector<bool> d;
    for (const Dff& ff : nl_->dffs())
      d.push_back(value_[static_cast<std::size_t>(ff.d)]);
    for (std::size_t i = 0; i < d.size(); ++i)
      commit(nl_->dffs()[i].q, d[i]);
    CycleResult r;
    r.toggles = toggled_.size();
    for (const NetId n : toggled_)
      r.energy += net_energy_[static_cast<std::size_t>(n)];
    r.energy += clock_energy_;
    return r;
  }

  [[nodiscard]] bool net_value(NetId n) const {
    return value_[static_cast<std::size_t>(n)];
  }
  [[nodiscard]] const std::vector<NetId>& last_toggles() const {
    return toggled_;
  }
  [[nodiscard]] std::size_t last_latch_begin() const { return latch_begin_; }
  [[nodiscard]] std::uint64_t gates_evaluated() const {
    return gates_evaluated_;
  }

 private:
  [[nodiscard]] bool eval(std::size_t gi) const {
    const Gate& g = nl_->gates()[gi];
    auto in = [&](int i) {
      return g.in[i] != kNoNet && value_[static_cast<std::size_t>(g.in[i])];
    };
    return eval_gate(g.type, in(0), in(1), in(2));
  }
  void eval_into(std::size_t gi) {
    value_[static_cast<std::size_t>(nl_->gates()[gi].out)] = eval(gi);
  }
  void mark(NetId n) {
    for (const std::size_t gi : consumers_[static_cast<std::size_t>(n)]) {
      if (!dirty_[gi]) {
        dirty_[gi] = 1;
        work_[level_[gi]].push_back(gi);
      }
    }
  }
  void commit(NetId n, bool v) {
    if (value_[static_cast<std::size_t>(n)] != v) {
      value_[static_cast<std::size_t>(n)] = v;
      toggled_.push_back(n);
      mark(n);
    }
  }

  const Netlist* nl_;
  std::vector<std::uint32_t> topo_;
  std::vector<std::size_t> level_;
  std::vector<std::vector<std::size_t>> consumers_;
  std::vector<std::vector<std::size_t>> work_;
  std::vector<std::uint8_t> dirty_;
  std::vector<double> net_energy_;
  double clock_energy_ = 0.0;
  std::vector<bool> value_;
  std::vector<bool> input_;
  std::vector<NetId> toggled_;
  std::size_t latch_begin_ = 0;
  std::uint64_t gates_evaluated_ = 0;
};

struct RandomNetlist {
  Netlist nl;
  std::vector<NetId> forceable;  // DFF Qs and gate outputs, never constants
};

/// A random sequential netlist over every gate type. Gates draw inputs from
/// everything built so far (constants included, repeats allowed), and a few
/// long chains make the level count deep. Most DFFs close a loop from logic
/// computed over the DFF outputs; the rest take D straight from a primary
/// input, a constant, their own Q, or another DFF's Q (shift-register
/// chains), the D nets that change without a gate re-evaluating them.
RandomNetlist random_netlist(Rng& rng) {
  RandomNetlist r;
  Netlist& nl = r.nl;
  std::vector<NetId> pool = {nl.const0(), nl.const1()};
  std::vector<NetId> pis;
  const std::size_t n_pi = 3 + rng.below(12);
  for (std::size_t i = 0; i < n_pi; ++i) {
    pis.push_back(nl.add_primary_input("pi"));
    pool.push_back(pis.back());
  }
  std::vector<NetId> qs;
  const std::size_t n_dff = 1 + rng.below(10);
  for (std::size_t i = 0; i < n_dff; ++i) {
    qs.push_back(nl.add_dff(rng.chance(0.5)));
    pool.push_back(qs.back());
    r.forceable.push_back(qs.back());
  }
  auto pick = [&] { return pool[rng.below(pool.size())]; };
  auto add_random_gate = [&](NetId first) {
    const auto t = static_cast<GateType>(rng.below(kNumGateTypes));
    const int arity = gate_arity(t);
    const NetId out = nl.add_gate(t, first, arity >= 2 ? pick() : kNoNet,
                                  arity >= 3 ? pick() : kNoNet);
    pool.push_back(out);
    r.forceable.push_back(out);
    return out;
  };
  const std::size_t n_gates = 20 + rng.below(120);
  for (std::size_t i = 0; i < n_gates; ++i) {
    if (rng.chance(0.05)) {
      // A deep chain hanging off the newest net.
      NetId tip = pool.back();
      const std::size_t len = 10 + rng.below(40);
      for (std::size_t k = 0; k < len; ++k) tip = add_random_gate(tip);
    } else {
      add_random_gate(pick());
    }
  }
  for (const NetId q : qs) {
    const std::uint64_t kind = rng.below(10);
    NetId d = pool[pool.size() - 1 - rng.below(pool.size() / 2)];
    if (kind == 0) d = pis[rng.below(pis.size())];
    if (kind == 1) d = rng.chance(0.5) ? nl.const0() : nl.const1();
    if (kind == 2) d = q;
    if (kind >= 3 && kind <= 4) d = qs[rng.below(qs.size())];
    nl.connect_dff_d(q, d);
  }
  EXPECT_EQ(nl.validate(), "");
  return r;
}

/// Toggle lists equal element by element: same length, same nets, same
/// commit order.
void expect_same_toggles(const std::vector<NetId>& ref,
                         std::span<const NetId> sim, int step) {
  ASSERT_EQ(ref.size(), sim.size()) << "step " << step;
  for (std::size_t i = 0; i < ref.size(); ++i)
    ASSERT_EQ(ref[i], sim[i]) << "step " << step << ", toggle " << i;
}

void expect_same_nets(const Netlist& nl, const ReferenceGateSim& ref,
                      const GateSim& sim) {
  for (std::size_t n = 0; n < nl.net_count(); ++n)
    ASSERT_EQ(ref.net_value(static_cast<NetId>(n)),
              sim.net_value(static_cast<NetId>(n)))
        << "net " << n;
}

class GateSimReference : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GateSimReference, StepMatchesReferenceKernel) {
  Rng rng(GetParam());
  const RandomNetlist d = random_netlist(rng);
  ReferenceGateSim ref(&d.nl);
  GateSim sim(&d.nl);
  const std::size_t n_pi = d.nl.primary_inputs().size();
  for (int step = 0; step < 600; ++step) {
    if (rng.chance(0.03)) {
      ref.reset();
      sim.reset();
    }
    if (rng.chance(0.05)) {
      const NetId n = d.forceable[rng.below(d.forceable.size())];
      const bool v = rng.chance(0.5);
      ref.force_net(n, v);
      sim.force_net(n, v);
    }
    for (std::size_t i = 0; i < n_pi; ++i) {
      const bool v = rng.chance(0.5);
      ref.set_input(i, v);
      sim.set_input(i, v);
    }
    const CycleResult re = ref.step();
    const CycleResult se = sim.step();
    ASSERT_EQ(re.energy, se.energy) << "step " << step;  // bitwise
    ASSERT_EQ(re.toggles, se.toggles) << "step " << step;
    ASSERT_NO_FATAL_FAILURE(
        expect_same_toggles(ref.last_toggles(), sim.last_toggles(), step));
    ASSERT_EQ(ref.last_latch_begin(), sim.last_latch_begin());
    ASSERT_EQ(ref.gates_evaluated(), sim.gates_evaluated()) << "step " << step;
    if (step % 32 == 0) expect_same_nets(d.nl, ref, sim);
  }
  expect_same_nets(d.nl, ref, sim);
}

TEST_P(GateSimReference, CachedReplaysMatchReferenceKernel) {
  Rng rng(GetParam());
  const RandomNetlist d = random_netlist(rng);
  ReferenceGateSim ref(&d.nl);
  GateSim sim(&d.nl);
  // 64 entries: small enough to exercise generation clears.
  ReactionCache cache(&sim, {}, std::make_shared<ReactionTable>(d.nl, 64));
  // A small stimulus pool makes reactions repeat, so the cache replays.
  std::vector<std::uint64_t> stimuli;
  for (int i = 0; i < 4; ++i) stimuli.push_back(rng.next());
  const std::size_t n_pi = d.nl.primary_inputs().size();
  for (int step = 0; step < 600; ++step) {
    if (rng.chance(0.05)) {
      ref.reset();
      sim.reset();
    }
    if (rng.chance(0.02)) {
      const NetId n = d.forceable[rng.below(d.forceable.size())];
      const bool v = rng.chance(0.5);
      ref.force_net(n, v);
      sim.force_net(n, v);
    }
    const std::uint64_t vec = stimuli[rng.below(stimuli.size())];
    for (std::size_t i = 0; i < n_pi; ++i) {
      ref.set_input(i, (vec >> i) & 1u);
      sim.set_input(i, (vec >> i) & 1u);
    }
    const std::uint64_t hits_before = cache.stats().hits;
    const CycleResult re = ref.step();
    const CycleResult se = cache.step();
    ASSERT_EQ(re.energy, se.energy) << "step " << step;  // bitwise
    ASSERT_EQ(re.toggles, se.toggles) << "step " << step;
    if (cache.stats().hits == hits_before) {  // a hit leaves last_toggles()
      ASSERT_NO_FATAL_FAILURE(
          expect_same_toggles(ref.last_toggles(), sim.last_toggles(), step));
    }
    ASSERT_EQ(ref.gates_evaluated(),
              sim.gates_evaluated() + cache.stats().skipped_gate_evals)
        << "step " << step;
    if (step % 32 == 0) expect_same_nets(d.nl, ref, sim);
  }
  expect_same_nets(d.nl, ref, sim);
  EXPECT_GT(cache.stats().hits, 0u);
}

// A 3-stage shift register whose first stage takes in XOR the last stage's
// Q: stage 1 and 2 D nets are Q nets, so their changes come from the clock
// edge, never from a gate. Stepped through a ReactionCache across
// reset(), force_net() on a gate-driven and a Q-driven D net and cache
// hits, against the reference kernel after every step.
TEST(GateSimShiftRegister, LatchMatchesReferenceAcrossStateBreaks) {
  Netlist nl;
  const NetId in = nl.add_primary_input("in");
  const NetId q0 = nl.add_dff(false);
  const NetId q1 = nl.add_dff(true);
  const NetId q2 = nl.add_dff(false);
  const NetId d0 = nl.add_gate(GateType::kXor2, in, q2);
  nl.connect_dff_d(q0, d0);
  nl.connect_dff_d(q1, q0);
  nl.connect_dff_d(q2, q1);
  nl.mark_output(q2, "out");
  ASSERT_EQ(nl.validate(), "");

  ReferenceGateSim ref(&nl);
  GateSim sim(&nl);
  ReactionCache cache(&sim, {});
  enum class Action { kNone, kReset, kForceGateD, kForceQD };
  // One entry per step: the input bit and what happens before the step.
  // The first 24 steps repeat an 8-step input pattern from reset, so the
  // cache hits; misses follow hits, forces de-anchor the cache, and the
  // reset re-anchors it.
  std::vector<std::pair<bool, Action>> script;
  for (int round = 0; round < 3; ++round) {
    script.push_back({true, Action::kReset});
    for (const bool b : {false, true, true, false, false, false, true})
      script.push_back({b, Action::kNone});
  }
  script.push_back({false, Action::kNone});  // a state the pattern never hit
  script.push_back({true, Action::kForceQD});
  script.push_back({true, Action::kNone});
  script.push_back({false, Action::kForceGateD});
  script.push_back({false, Action::kForceQD});
  script.push_back({true, Action::kNone});
  script.push_back({true, Action::kReset});
  for (const bool b : {false, true, true, false, false, false, true})
    script.push_back({b, Action::kNone});

  int step = 0;
  for (const auto& [bit, action] : script) {
    switch (action) {
      case Action::kNone:
        break;
      case Action::kReset:
        ref.reset();
        sim.reset();
        break;
      case Action::kForceGateD:  // d0 is gate-driven and stage 0's D
        ref.force_net(d0, !ref.net_value(d0));
        sim.force_net(d0, !sim.net_value(d0));
        break;
      case Action::kForceQD:  // q0 is stage 0's Q and stage 1's D
        ref.force_net(q0, !ref.net_value(q0));
        sim.force_net(q0, !sim.net_value(q0));
        break;
    }
    ref.set_input(0, bit);
    sim.set_input(0, bit);
    const std::uint64_t hits_before = cache.stats().hits;
    const CycleResult re = ref.step();
    const CycleResult se = cache.step();
    ASSERT_EQ(re.energy, se.energy) << "step " << step;  // bitwise
    ASSERT_EQ(re.toggles, se.toggles) << "step " << step;
    if (cache.stats().hits == hits_before) {
      ASSERT_NO_FATAL_FAILURE(
          expect_same_toggles(ref.last_toggles(), sim.last_toggles(), step));
      ASSERT_EQ(ref.last_latch_begin(), sim.last_latch_begin());
    }
    ASSERT_NO_FATAL_FAILURE(expect_same_nets(nl, ref, sim));
    ++step;
  }
  EXPECT_GT(cache.stats().hits, 0u);
  EXPECT_GT(cache.stats().invalidations, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GateSimReference,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace socpower::hw
