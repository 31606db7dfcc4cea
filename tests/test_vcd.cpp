// VCD recorder tests.
#include <gtest/gtest.h>

#include "hw/vcd.hpp"
#include "hwsyn/rtl.hpp"

namespace socpower::hw {
namespace {

TEST(Vcd, RecordsToggleFlop) {
  Netlist nl;
  const NetId q = nl.add_dff(false);
  const NetId d = nl.add_gate(GateType::kInv, q);
  nl.connect_dff_d(q, d);
  nl.mark_output(q, "q");
  GateSim sim(&nl);
  VcdRecorder vcd(&sim);
  EXPECT_EQ(vcd.signal_count(), 2u);  // marked output + the DFF itself
  for (int t = 0; t < 4; ++t) {
    sim.step();
    vcd.sample(static_cast<std::uint64_t>(t));
  }
  const std::string out = vcd.render("top", "10ns");
  EXPECT_NE(out.find("$timescale 10ns $end"), std::string::npos);
  EXPECT_NE(out.find("$scope module top $end"), std::string::npos);
  EXPECT_NE(out.find("$var wire 1 ! q $end"), std::string::npos);
  // The flop alternates: every sample produces a change record.
  EXPECT_NE(out.find("#0"), std::string::npos);
  EXPECT_NE(out.find("#3"), std::string::npos);
}

TEST(Vcd, OnlyChangesAreEmitted) {
  Netlist nl;
  const NetId a = nl.add_primary_input("a");
  const NetId x = nl.add_gate(GateType::kBuf, a);
  nl.mark_output(x, "x");
  GateSim sim(&nl);
  VcdRecorder vcd(&sim);
  sim.set_input(0, true);
  sim.step();
  vcd.sample(0);
  sim.step();  // no change
  vcd.sample(1);
  sim.set_input(0, false);
  sim.step();
  vcd.sample(2);
  const std::string out = vcd.render();
  // Time 1 produced no change records, so "#1" must be absent.
  EXPECT_EQ(out.find("#1\n"), std::string::npos);
  EXPECT_NE(out.find("#2\n"), std::string::npos);
}

TEST(Vcd, WatchAddsArbitraryNets) {
  Netlist nl;
  hwsyn::RtlBuilder rtl(&nl);
  const auto w = rtl.constant(0x3, 4);
  GateSim sim(&nl);
  VcdRecorder vcd(&sim);
  vcd.watch(w[0], "bit zero");
  vcd.watch(w[1], "bit1");
  sim.step();
  vcd.sample(0);
  const std::string out = vcd.render();
  EXPECT_NE(out.find("bit_zero"), std::string::npos);  // space sanitized
  EXPECT_NE(out.find("bit1"), std::string::npos);
}

TEST(Vcd, IdentifiersStayUniqueBeyondAlphabet) {
  // 200 signals exceed the single-character VCD id space; identifiers must
  // remain unique.
  Netlist nl;
  std::vector<NetId> nets;
  for (int i = 0; i < 200; ++i) {
    const NetId n = nl.add_primary_input("i");
    nets.push_back(nl.add_gate(GateType::kBuf, n));
  }
  GateSim sim(&nl);
  VcdRecorder vcd(&sim);
  for (std::size_t i = 0; i < nets.size(); ++i)
    vcd.watch(nets[i], std::string("n").append(std::to_string(i)));
  sim.step();
  vcd.sample(0);
  const std::string out = vcd.render();
  // Every $var line unique.
  std::size_t vars = 0, pos = 0;
  while ((pos = out.find("$var", pos)) != std::string::npos) {
    ++vars;
    pos += 4;
  }
  EXPECT_EQ(vars, 200u);
}

}  // namespace
}  // namespace socpower::hw
