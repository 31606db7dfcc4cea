// Consolidated coverage: full-ISA encode/decode sweep with randomized
// fields, event-driven gate-sim efficiency, narrow bus data widths, DSL
// corner shapes, and technology-parameter plumbing.
#include <gtest/gtest.h>

#include "bus/bus_model.hpp"
#include "bus_drain.hpp"
#include "cfsm/dsl.hpp"
#include "core/coestimator.hpp"
#include "hw/gatesim.hpp"
#include "hwsyn/rtl.hpp"
#include "iss/assembler.hpp"
#include "util/rng.hpp"

namespace socpower {
namespace {

TEST(IsaSweep, EncodeDecodeRoundTripsEveryOpcodeRandomized) {
  Rng rng(606);
  for (std::size_t op = 0; op < iss::kNumOpcodes; ++op) {
    for (int trial = 0; trial < 20; ++trial) {
      iss::Instruction ins;
      ins.op = static_cast<iss::Opcode>(op);
      ins.rd = static_cast<std::uint8_t>(rng.below(32));
      ins.rs1 = static_cast<std::uint8_t>(rng.below(32));
      ins.rs2 = static_cast<std::uint8_t>(rng.below(32));
      if (ins.op == iss::Opcode::kJ || ins.op == iss::Opcode::kJal)
        ins.imm = static_cast<std::int32_t>(rng.below(1 << 26));
      else
        ins.imm = static_cast<std::int32_t>(rng.range(-32768, 32767));
      const iss::Instruction back = iss::decode(iss::encode(ins));
      // Round-trip preserves exactly the fields the format encodes; compare
      // via re-encoding (canonical form).
      EXPECT_EQ(iss::encode(back), iss::encode(ins))
          << iss::disassemble(ins);
      EXPECT_EQ(back.op, ins.op);
    }
  }
}

TEST(GateSimEfficiency, EventDrivenSkipsQuietLogic) {
  // A wide design where only one small slice toggles: the event-driven
  // simulator must evaluate far fewer gates than gates * cycles.
  hw::Netlist nl;
  hwsyn::RtlBuilder rtl(&nl);
  const auto live = rtl.input_word("live", 8);
  const auto quiet = rtl.input_word("quiet", 8);
  auto acc_live = rtl.reg_word(0, 8);
  auto acc_quiet = rtl.reg_word(0, 8);
  rtl.connect_reg(acc_live, rtl.add(acc_live, live));
  rtl.connect_reg(acc_quiet, rtl.add(acc_quiet, quiet));
  hw::GateSim sim(&nl);
  Rng rng(8);
  const int cycles = 200;
  for (int c = 0; c < cycles; ++c) {
    sim.set_input_word(0, static_cast<std::uint32_t>(rng.below(256)), 8);
    sim.set_input_word(8, 0, 8);  // the quiet half never changes
    sim.step();
  }
  const auto evals = sim.gates_evaluated();
  const auto upper =
      static_cast<std::uint64_t>(nl.gate_count()) * cycles;
  EXPECT_LT(evals, upper * 7 / 10) << "event-driven evaluation ineffective";
}

TEST(BusNarrowData, FourBitBusMasksActivityAndEnergy) {
  bus::BusParams p;
  p.data_bits = 4;
  p.line_cap_f = 1e-9;
  bus::BusScheduler narrow(p);
  p.data_bits = 8;
  bus::BusScheduler wide(p);
  // 0xF0 on a 4-bit bus carries only the low nibble (0x0): zero toggles
  // against the idle 0 state; on an 8-bit bus the high nibble toggles.
  bus::BusRequest r;
  r.data = {0xF0};
  const auto rn = transfer_one(narrow, 0, r);
  const auto rw = transfer_one(wide, 0, r);
  EXPECT_EQ(narrow.totals().data_toggles, 0u);
  EXPECT_EQ(wide.totals().data_toggles, 4u);
  EXPECT_LT(rn.energy, rw.energy);
}

TEST(DslCorners, EmptyProcessAndDeepElseIfChain) {
  cfsm::Network net;
  const auto r = cfsm::parse_network(R"(
    event T, OUT;
    process idle { input T; }      // empty body: reacts, does nothing
    process classify {
      input T; output OUT;
      var c = 0;
      if (val(T) > 100) { c = 4; }
      else if (val(T) > 50) { c = 3; }
      else if (val(T) > 10) { c = 2; }
      else if (val(T) > 0) { c = 1; }
      else { c = 0; }
      emit OUT(c);
    }
  )", net);
  ASSERT_TRUE(r.ok()) << r.error;
  const cfsm::Cfsm& cl = net.cfsm(net.cfsm_id("classify"));
  cfsm::CfsmState st = cl.make_state();
  const std::pair<int, int> cases[] = {
      {200, 4}, {60, 3}, {20, 2}, {5, 1}, {0, 0}, {-9, 0}};
  for (const auto& [v, expect] : cases) {
    cfsm::ReactionInputs in;
    in.set(net.event_id("T"), v);
    EXPECT_EQ(cl.react(in, st).emissions[0].value, expect) << v;
  }
  // The empty process still runs cleanly end to end in both mappings.
  for (const bool sw : {true, false}) {
    core::CoEstimator est(&net, {});
    if (sw) est.map_sw(net.cfsm_id("idle"), 0);
    else est.map_hw(net.cfsm_id("idle"));
    est.map_sw(net.cfsm_id("classify"), 1);
    est.prepare();
    sim::Stimulus stim;
    stim.add(1, net.event_id("T"), 42);
    const auto res = est.run(stim);
    EXPECT_FALSE(res.truncated);
  }
}

TEST(TechParams, CustomLibraryChangesHwEnergyProportionally) {
  hw::Netlist nl;
  hwsyn::RtlBuilder rtl(&nl);
  const auto a = rtl.input_word("a", 16);
  const auto b = rtl.input_word("b", 16);
  const auto sum = rtl.add(a, b);
  for (const auto n : sum) nl.mark_output(n, "s");

  hw::TechParams heavy = hw::TechParams::generic_250nm();
  for (auto& c : heavy.cell_output_cap_f) c *= 3.0;
  heavy.wire_cap_per_fanout_f *= 3.0;
  heavy.input_net_cap_f *= 3.0;
  heavy.dff_output_cap_f *= 3.0;
  heavy.clock_cap_per_dff_f *= 3.0;

  hw::GateSim base(&nl);
  hw::Netlist nl2;
  hwsyn::RtlBuilder rtl2(&nl2);
  const auto a2 = rtl2.input_word("a", 16);
  const auto b2 = rtl2.input_word("b", 16);
  const auto sum2 = rtl2.add(a2, b2);
  for (const auto n : sum2) nl2.mark_output(n, "s");
  hw::GateSim scaled(&nl2, heavy);

  base.set_input_word(0, 0x1234, 16);
  base.set_input_word(16, 0x0F0F, 16);
  scaled.set_input_word(0, 0x1234, 16);
  scaled.set_input_word(16, 0x0F0F, 16);
  const Joules eb = base.step().energy;
  const Joules es = scaled.step().energy;
  EXPECT_NEAR(es / eb, 3.0, 1e-9);
}

TEST(PowerTraceCorners, PeakTiesResolveToEarlierWindow) {
  sim::PowerTrace t;
  const auto c = t.add_component("c");
  t.record(c, 5, 2e-9);
  t.record(c, 25, 2e-9);  // identical energy, later window
  const auto wf = t.waveform(c, 10);
  const auto peaks = sim::PowerTrace::peak_windows(wf, 2);
  EXPECT_EQ(peaks[0], 0u);
  EXPECT_EQ(peaks[1], 2u);
}

}  // namespace
}  // namespace socpower
