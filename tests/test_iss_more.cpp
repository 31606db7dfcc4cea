// Additional ISS coverage: branch matrix (every comparison, both outcomes),
// call/return conventions, byte-access sign semantics, energy accounting
// invariants, and run-budget behavior.
#include <gtest/gtest.h>

#include "iss/assembler.hpp"
#include "iss/iss.hpp"

namespace socpower::iss {
namespace {

struct BranchCase {
  const char* mnemonic;
  std::int32_t a;
  std::int32_t b;
  bool taken;
};

// Printed in place of gtest's byte dump, which would put the address of
// `mnemonic` (different in every run) into the test names.
void PrintTo(const BranchCase& c, std::ostream* os) {
  *os << c.mnemonic << ' ' << c.a << ',' << c.b
      << (c.taken ? " taken" : " not taken");
}

class BranchMatrix : public ::testing::TestWithParam<BranchCase> {};

TEST_P(BranchMatrix, OutcomeFollowsComparison) {
  const BranchCase& c = GetParam();
  char src[256];
  std::snprintf(src, sizeof src, R"(
    movi r4, %d
    movi r5, %d
    %s r4, r5, taken
    nop
    movi r6, 1      ; fall-through marker
  taken:
    halt
  )", c.a, c.b, c.mnemonic);
  Iss iss(InstructionPowerModel::sparclite(), {});
  const AsmResult prog = assemble(src, 0x10);
  ASSERT_TRUE(prog.ok()) << prog.error;
  iss.load_program(prog.program, 0x10);
  iss.set_pc(0x10);
  const RunResult r = iss.run();
  ASSERT_TRUE(r.halted);
  EXPECT_EQ(iss.reg(6), c.taken ? 0 : 1)
      << c.mnemonic << " " << c.a << "," << c.b;
}

INSTANTIATE_TEST_SUITE_P(
    AllComparisons, BranchMatrix,
    ::testing::Values(
        BranchCase{"beq", 5, 5, true}, BranchCase{"beq", 5, 6, false},
        BranchCase{"bne", 5, 6, true}, BranchCase{"bne", 5, 5, false},
        BranchCase{"blt", -1, 0, true}, BranchCase{"blt", 0, 0, false},
        BranchCase{"blt", 1, -1, false}, BranchCase{"bge", 0, 0, true},
        BranchCase{"bge", -2, -1, false}, BranchCase{"bge", 7, -7, true}),
    [](const auto& info) {
      return std::string(info.param.mnemonic) + "_" +
             (info.param.taken ? "taken" : "nottaken") + "_" +
             std::to_string(info.index);
    });

TEST(IssMore, NestedCallsPreserveDiscipline) {
  // Manual link-register save: outer uses r30, saves it across the inner
  // call in r29.
  Iss iss(InstructionPowerModel::sparclite(), {});
  const AsmResult prog = assemble(R"(
    jal r30, outer
    nop
    movi r10, 1
    halt
  outer:
    or   r29, r30, r0
    jal  r30, inner
    nop
    movi r11, 2
    jr   r29
    nop
  inner:
    movi r12, 3
    jr   r30
    nop
  )", 0x10);
  ASSERT_TRUE(prog.ok()) << prog.error;
  iss.load_program(prog.program, 0x10);
  iss.set_pc(0x10);
  const RunResult r = iss.run();
  ASSERT_TRUE(r.halted);
  EXPECT_EQ(iss.reg(10), 1);
  EXPECT_EQ(iss.reg(11), 2);
  EXPECT_EQ(iss.reg(12), 3);
}

TEST(IssMore, ByteAccessSignBehavior) {
  Iss iss(InstructionPowerModel::sparclite(), {});
  const AsmResult prog = assemble(R"(
    movi r4, 0x300
    movi r5, -1        ; 0xFFFFFFFF
    sb   r5, 0(r4)
    lb   r6, 0(r4)     ; sign-extends to -1
    lbu  r7, 0(r4)     ; zero-extends to 255
    movi r8, 0x17F
    sb   r8, 1(r4)     ; stores low byte 0x7F
    lb   r9, 1(r4)
    halt
  )", 0x10);
  ASSERT_TRUE(prog.ok()) << prog.error;
  iss.load_program(prog.program, 0x10);
  iss.set_pc(0x10);
  ASSERT_TRUE(iss.run().halted);
  EXPECT_EQ(iss.reg(6), -1);
  EXPECT_EQ(iss.reg(7), 255);
  EXPECT_EQ(iss.reg(9), 0x7F);
}

TEST(IssMore, EnergyIsAdditiveAcrossInvocations) {
  // Running A;HALT then B;HALT must cost the same as measuring each alone
  // (per-invocation circuit-state reset makes invocations independent).
  Iss iss(InstructionPowerModel::sparclite(), {});
  const AsmResult a = assemble("add r4, r5, r6\n halt", 0x10);
  const AsmResult b = assemble("mul r7, r8, r9\n halt", 0x40);
  iss.load_program(a.program, 0x10);
  iss.load_program(b.program, 0x40);
  iss.reset_cpu();
  iss.set_pc(0x10);
  const Joules ea = iss.run().energy;
  iss.reset_cpu();
  iss.set_pc(0x40);
  const Joules eb = iss.run().energy;
  iss.reset_cpu();
  iss.set_pc(0x10);
  const Joules ea2 = iss.run().energy;
  EXPECT_DOUBLE_EQ(ea, ea2);
  EXPECT_NE(ea, eb);
}

TEST(IssMore, StallCyclesCountedSeparately) {
  IssConfig cfg;
  cfg.pipeline_fill_cycles = 2;
  Iss iss(InstructionPowerModel::sparclite(), cfg);
  const AsmResult prog = assemble(R"(
    movi r4, 0x200
    lw   r5, 0(r4)
    add  r6, r5, r5
    lw   r7, 4(r4)
    add  r8, r7, r7
    halt
  )", 0x10);
  ASSERT_TRUE(prog.ok());
  iss.load_program(prog.program, 0x10);
  iss.set_pc(0x10);
  const RunResult r = iss.run();
  EXPECT_EQ(r.stall_cycles, 2u + 2u);  // fill + two load-use bubbles
  EXPECT_EQ(r.instructions, 6u);
  EXPECT_EQ(r.cycles, 2u + 6u + 2u);
}

TEST(IssMore, ZeroBudgetRunsNothing) {
  Iss iss(InstructionPowerModel::sparclite(), {});
  const AsmResult prog = assemble("halt", 0x10);
  iss.load_program(prog.program, 0x10);
  iss.set_pc(0x10);
  const RunResult r = iss.run(1);
  EXPECT_TRUE(r.halted);
  EXPECT_EQ(r.instructions, 1u);
}

TEST(IssMore, PcTraceMatchesExecutedInstructions) {
  Iss iss(InstructionPowerModel::sparclite(), {});
  const AsmResult prog = assemble(R"(
    movi r4, 2
  loop:
    subi r4, r4, 1
    bne  r4, r0, loop
    nop
    halt
  )", 0x20);
  ASSERT_TRUE(prog.ok());
  iss.load_program(prog.program, 0x20);
  iss.set_pc(0x20);
  std::vector<std::uint32_t> trace;
  iss.set_pc_trace(&trace);
  const RunResult r = iss.run();
  iss.set_pc_trace(nullptr);
  EXPECT_EQ(trace.size(), r.instructions);
  EXPECT_EQ(trace.front(), 0x20u * kInstrBytes);
  // The loop body address appears twice (two iterations).
  const std::uint32_t body = (0x20u + 1) * kInstrBytes;
  EXPECT_EQ(std::count(trace.begin(), trace.end(), body), 2);
}

}  // namespace
}  // namespace socpower::iss
