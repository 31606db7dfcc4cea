// Gate-level substrate tests: cell truth tables (parameterized), netlist
// construction/validation, levelization, the event-driven simulator's
// equivalence with full evaluation, toggle counting and energy physics.
#include <gtest/gtest.h>

#include "hw/gatesim.hpp"
#include "hw/netlist.hpp"
#include "hwsyn/rtl.hpp"
#include "util/rng.hpp"

namespace socpower::hw {
namespace {

struct GateCase {
  GateType t;
  bool a, b, c, expect;
};

class GateTruth : public ::testing::TestWithParam<GateCase> {};

TEST_P(GateTruth, Eval) {
  const GateCase& g = GetParam();
  EXPECT_EQ(eval_gate(g.t, g.a, g.b, g.c), g.expect);
}

INSTANTIATE_TEST_SUITE_P(
    AllCells, GateTruth,
    ::testing::Values(
        GateCase{GateType::kInv, false, false, false, true},
        GateCase{GateType::kInv, true, false, false, false},
        GateCase{GateType::kBuf, true, false, false, true},
        GateCase{GateType::kAnd2, true, true, false, true},
        GateCase{GateType::kAnd2, true, false, false, false},
        GateCase{GateType::kOr2, false, true, false, true},
        GateCase{GateType::kOr2, false, false, false, false},
        GateCase{GateType::kNand2, true, true, false, false},
        GateCase{GateType::kNor2, false, false, false, true},
        GateCase{GateType::kXor2, true, false, false, true},
        GateCase{GateType::kXor2, true, true, false, false},
        GateCase{GateType::kXnor2, true, true, false, true},
        GateCase{GateType::kMux2, true, false, false, true},   // sel=0 -> a
        GateCase{GateType::kMux2, true, false, true, false},   // sel=1 -> b
        GateCase{GateType::kMux2, false, true, true, true}));

TEST(Netlist, ValidateCatchesUnconnectedDff) {
  Netlist nl;
  nl.add_dff();
  EXPECT_NE(nl.validate().find("unconnected D"), std::string::npos);
}

TEST(Netlist, ValidateCatchesUndrivenInput) {
  Netlist nl;
  const NetId floating = nl.add_net();
  nl.add_gate(GateType::kInv, floating);
  EXPECT_NE(nl.validate().find("no driver"), std::string::npos);
}

TEST(Netlist, LevelizeOrdersDependencies) {
  Netlist nl;
  const NetId a = nl.add_primary_input("a");
  const NetId x = nl.add_gate(GateType::kInv, a);
  const NetId y = nl.add_gate(GateType::kInv, x);
  (void)y;
  std::string err;
  const auto order = nl.levelize(&err).order;
  EXPECT_TRUE(err.empty());
  ASSERT_EQ(order.size(), 2u);
  EXPECT_LT(order[0], order[1]);
}

TEST(Netlist, DffBreaksCombinationalCycle) {
  // q -> inv -> d(q): legal sequential loop (toggle flop).
  Netlist nl;
  const NetId q = nl.add_dff(false);
  const NetId d = nl.add_gate(GateType::kInv, q);
  nl.connect_dff_d(q, d);
  EXPECT_EQ(nl.validate(), "");
}

TEST(Netlist, FanoutTracking) {
  Netlist nl;
  const NetId a = nl.add_primary_input("a");
  nl.add_gate(GateType::kInv, a);
  nl.add_gate(GateType::kBuf, a);
  EXPECT_EQ(nl.fanout(a), 2u);
}

TEST(Netlist, CapacitanceModel) {
  Netlist nl;
  const TechParams tech = TechParams::generic_250nm();
  const NetId a = nl.add_primary_input("a");
  const NetId x = nl.add_gate(GateType::kXor2, a, nl.const0());
  nl.add_gate(GateType::kInv, x);
  // XOR output: cell cap + 1 fanout of wire cap.
  EXPECT_DOUBLE_EQ(
      nl.net_capacitance(x, tech),
      tech.cell_output_cap_f[static_cast<std::size_t>(GateType::kXor2)] +
          tech.wire_cap_per_fanout_f);
  // Constants cost nothing.
  EXPECT_DOUBLE_EQ(nl.net_capacitance(nl.const0(), tech), 0.0);
}

TEST(GateSim, ToggleFlopAlternates) {
  Netlist nl;
  const NetId q = nl.add_dff(false);
  const NetId d = nl.add_gate(GateType::kInv, q);
  nl.connect_dff_d(q, d);
  nl.mark_output(q, "q");
  GateSim sim(&nl);
  bool expect = false;
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(sim.net_value(q), expect);
    sim.step();
    expect = !expect;
  }
}

TEST(GateSim, NoActivityNoDynamicToggles) {
  Netlist nl;
  const NetId a = nl.add_primary_input("a");
  nl.add_gate(GateType::kInv, a);
  GateSim sim(&nl);
  sim.set_input(0, false);
  sim.step();  // settle
  const CycleResult r = sim.step();  // same input again
  EXPECT_EQ(r.toggles, 0u);
}

TEST(GateSim, EnergyScalesWithVddSquared) {
  auto build = [] {
    Netlist nl;
    const NetId a = nl.add_primary_input("a");
    NetId x = a;
    for (int i = 0; i < 8; ++i) x = nl.add_gate(GateType::kInv, x);
    nl.mark_output(x, "out");
    return nl;
  };
  const Netlist n1 = build();
  const Netlist n2 = build();
  GateSim lo(&n1, TechParams::generic_250nm(),
             ElectricalParams{.vdd_volts = 1.65});
  GateSim hi(&n2, TechParams::generic_250nm(),
             ElectricalParams{.vdd_volts = 3.3});
  lo.set_input(0, true);
  hi.set_input(0, true);
  const Joules el = lo.step().energy;
  const Joules eh = hi.step().energy;
  EXPECT_NEAR(eh / el, 4.0, 1e-9);
}

TEST(GateSim, EventDrivenMatchesFullEvaluation) {
  // Random netlist, random stimuli: toggle counts from the event-driven
  // simulator must equal a brute-force full re-evaluation reference.
  Rng rng(99);
  Netlist nl;
  std::vector<NetId> pool;
  for (int i = 0; i < 6; ++i) pool.push_back(nl.add_primary_input("i"));
  std::vector<NetId> qs;
  for (int i = 0; i < 4; ++i) {
    const NetId q = nl.add_dff(rng.chance(0.5));
    qs.push_back(q);
    pool.push_back(q);
  }
  for (int i = 0; i < 60; ++i) {
    const auto pick = [&] { return pool[rng.below(pool.size())]; };
    static const GateType kinds[] = {GateType::kInv, GateType::kAnd2,
                                     GateType::kOr2, GateType::kXor2,
                                     GateType::kNand2, GateType::kMux2};
    const GateType t = kinds[rng.below(std::size(kinds))];
    NetId out;
    if (gate_arity(t) == 1) out = nl.add_gate(t, pick());
    else if (gate_arity(t) == 2) out = nl.add_gate(t, pick(), pick());
    else out = nl.add_gate(t, pick(), pick(), pick());
    pool.push_back(out);
  }
  for (const NetId q : qs) nl.connect_dff_d(q, pool[rng.below(pool.size())]);
  ASSERT_EQ(nl.validate(), "");

  GateSim sim(&nl);
  // Reference: recompute every net from scratch each cycle.
  std::vector<std::uint8_t> ref(nl.net_count(), 0);
  ref[static_cast<std::size_t>(nl.const1())] = 1;
  for (std::size_t i = 0; i < nl.dffs().size(); ++i)
    ref[static_cast<std::size_t>(nl.dffs()[i].q)] =
        nl.dffs()[i].init ? 1 : 0;
  std::string err;
  const auto topo = nl.levelize(&err).order;
  auto settle_ref = [&] {
    for (const std::size_t gi : topo) {
      const Gate& g = nl.gates()[gi];
      const bool a = ref[static_cast<std::size_t>(g.in[0])];
      const bool b2 =
          g.in[1] == kNoNet ? false : ref[static_cast<std::size_t>(g.in[1])];
      const bool c =
          g.in[2] == kNoNet ? false : ref[static_cast<std::size_t>(g.in[2])];
      ref[static_cast<std::size_t>(g.out)] = eval_gate(g.type, a, b2, c);
    }
  };
  settle_ref();

  for (int cycle = 0; cycle < 40; ++cycle) {
    std::vector<std::uint8_t> ins;
    for (std::size_t i = 0; i < nl.primary_inputs().size(); ++i) {
      const bool v = rng.chance(0.5);
      ins.push_back(v);
      sim.set_input(i, v);
    }
    sim.step();
    // Reference cycle.
    for (std::size_t i = 0; i < ins.size(); ++i)
      ref[static_cast<std::size_t>(nl.primary_inputs()[i])] = ins[i];
    settle_ref();
    std::vector<std::pair<NetId, bool>> latch;
    for (const Dff& ff : nl.dffs())
      latch.emplace_back(ff.q, ref[static_cast<std::size_t>(ff.d)] != 0);
    for (const auto& [q, v] : latch) ref[static_cast<std::size_t>(q)] = v;
    settle_ref();  // post-latch settle so comparisons use stable values

    // Compare every DFF output and every marked net against the simulator
    // (the sim's combinational nets lag DFF updates until its next step, so
    // compare state nets only).
    for (const Dff& ff : nl.dffs())
      EXPECT_EQ(sim.net_value(ff.q),
                ref[static_cast<std::size_t>(ff.q)] != 0)
          << "cycle " << cycle;
  }
}

TEST(GateSim, ForceNetPropagatesNextStep) {
  Netlist nl;
  const NetId q = nl.add_dff(false);
  const NetId x = nl.add_gate(GateType::kBuf, q);
  nl.connect_dff_d(q, q);  // holds its value
  nl.mark_output(x, "x");
  GateSim sim(&nl);
  sim.step();
  EXPECT_FALSE(sim.net_value(x));
  sim.force_net(q, true);
  sim.step();
  EXPECT_TRUE(sim.net_value(x));
}

TEST(GateSim, ResetRestoresInitialState) {
  Netlist nl;
  const NetId q = nl.add_dff(true);
  const NetId d = nl.add_gate(GateType::kInv, q);
  nl.connect_dff_d(q, d);
  GateSim sim(&nl);
  sim.step();
  sim.step();
  sim.reset();
  EXPECT_TRUE(sim.net_value(q));
}

TEST(GateSim, ClockEnergyChargedPerCycleEvenWhenIdle) {
  Netlist nl;
  const NetId q = nl.add_dff(false);
  nl.connect_dff_d(q, q);
  GateSim sim(&nl);
  const CycleResult r = sim.step();
  EXPECT_GT(r.energy, 0.0);  // the clock tree still switches
  EXPECT_EQ(r.toggles, 0u);
}

TEST(GateSim, ReadWordAssemblesBits) {
  Netlist nl;
  hwsyn::RtlBuilder rtl(&nl);
  const auto w = rtl.constant(0xA5, 8);
  for (unsigned b = 0; b < 8; ++b)
    nl.mark_output(w[b], std::string("w") + std::to_string(b));
  GateSim sim(&nl);
  sim.step();
  EXPECT_EQ(sim.read_word(0, 8), 0xA5u);
}

TEST(GateSim, WideInputWord48RoundTrips) {
  // 48-bit pass-through port: set_input_word/read_word carry the full
  // uint64_t, so ports wider than 32 bits round-trip without truncation.
  Netlist nl;
  std::vector<NetId> pis;
  for (int i = 0; i < 48; ++i)
    pis.push_back(nl.add_primary_input("in" + std::to_string(i)));
  for (int i = 0; i < 48; ++i)
    nl.mark_output(nl.add_gate(GateType::kBuf, pis[i]), "out");
  ASSERT_EQ(nl.validate(), "");

  GateSim sim(&nl);
  const std::uint64_t value = 0x123456789ABCull;
  sim.set_input_word(0, value, 48);
  (void)sim.step();
  EXPECT_EQ(sim.read_word(0, 48), value);
}

TEST(GateSim, SetInputWordStagesLikeSingleBits) {
  // set_input_word stages whole bytes at a time; every width and offset,
  // including words that run past the last input, must stage exactly what
  // one set_input() per bit stages and count the same dropped writes.
  Netlist nl;
  for (int i = 0; i < 45; ++i) nl.add_primary_input("in");
  ASSERT_EQ(nl.validate(), "");
  GateSim word(&nl);
  GateSim bits(&nl);
  Rng rng(11);
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t first = rng.below(50);
    const auto width = static_cast<unsigned>(rng.below(65));
    const std::uint64_t value = rng.next();
    word.set_input_word(first, value, width);
    for (unsigned b = 0; b < width; ++b)
      bits.set_input(first + b, (value >> b) & 1u);
    ASSERT_EQ(word.staged_inputs(), bits.staged_inputs()) << "trial " << trial;
    ASSERT_EQ(word.dropped_input_writes(), bits.dropped_input_writes());
  }
}

}  // namespace
}  // namespace socpower::hw
