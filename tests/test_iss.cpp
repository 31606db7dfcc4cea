// ISS tests: per-instruction semantics (parameterized), pipeline timing
// (load-use interlock, delay slots, multi-cycle multiply), encoding
// round-trips, assembler, and the instruction-level power model.
#include <gtest/gtest.h>

#include <vector>

#include "iss/assembler.hpp"
#include "iss/isa.hpp"
#include "iss/iss.hpp"
#include "iss/power_model.hpp"

namespace socpower::iss {
namespace {

Iss make_iss(IssConfig cfg = {}) {
  return Iss(InstructionPowerModel::sparclite(), cfg);
}

RunResult run_asm(Iss& iss, const std::string& src,
                  std::uint32_t base = 0x10) {
  const AsmResult r = assemble(src, base);
  EXPECT_TRUE(r.ok()) << r.error;
  iss.load_program(r.program, base);
  iss.reset_cpu();
  iss.set_pc(base);
  return iss.run();
}

TEST(IssExec, MoviAndArithmetic) {
  Iss iss = make_iss();
  run_asm(iss, R"(
    movi r4, 10
    movi r5, 3
    add  r6, r4, r5
    sub  r7, r4, r5
    mul  r8, r4, r5
    div  r9, r4, r5
    halt
  )");
  EXPECT_EQ(iss.reg(6), 13);
  EXPECT_EQ(iss.reg(7), 7);
  EXPECT_EQ(iss.reg(8), 30);
  EXPECT_EQ(iss.reg(9), 3);
}

TEST(IssExec, DivByZeroYieldsZero) {
  Iss iss = make_iss();
  run_asm(iss, "movi r4, 7\n div r5, r4, r0\n halt");
  EXPECT_EQ(iss.reg(5), 0);
}

TEST(IssExec, R0IsHardwiredZero) {
  Iss iss = make_iss();
  run_asm(iss, "movi r0, 55\n add r4, r0, r0\n halt");
  EXPECT_EQ(iss.reg(0), 0);
  EXPECT_EQ(iss.reg(4), 0);
}

TEST(IssExec, LogicalImmediatesZeroExtend) {
  Iss iss = make_iss();
  run_asm(iss, R"(
    movhi r4, 0x1234
    ori   r4, r4, 0x8765
    movi  r5, -1
    andi  r6, r5, 0xffff
    halt
  )");
  EXPECT_EQ(static_cast<std::uint32_t>(iss.reg(4)), 0x12348765u);
  EXPECT_EQ(iss.reg(6), 0xffff);
}

TEST(IssExec, ShiftsAndSetLessThan) {
  Iss iss = make_iss();
  run_asm(iss, R"(
    movi r4, -16
    srai r5, r4, 2
    srli r6, r4, 28
    slli r7, r4, 1
    movi r8, 3
    slt  r9, r4, r8
    sltu r10, r4, r8
    slti r11, r8, 10
    halt
  )");
  EXPECT_EQ(iss.reg(5), -4);
  EXPECT_EQ(iss.reg(6), 15);
  EXPECT_EQ(iss.reg(7), -32);
  EXPECT_EQ(iss.reg(9), 1);   // signed: -16 < 3
  EXPECT_EQ(iss.reg(10), 0);  // unsigned: 0xfffffff0 > 3
  EXPECT_EQ(iss.reg(11), 1);
}

TEST(IssExec, LoadStoreWordAndByte) {
  Iss iss = make_iss();
  run_asm(iss, R"(
    movi r4, 0x200
    movi r5, -2
    sw   r5, 0(r4)
    lw   r6, 0(r4)
    movi r7, 0xab
    sb   r7, 8(r4)
    lbu  r8, 8(r4)
    lb   r9, 8(r4)
    halt
  )");
  EXPECT_EQ(iss.reg(6), -2);
  EXPECT_EQ(iss.reg(8), 0xab);
  EXPECT_EQ(iss.reg(9), static_cast<std::int8_t>(0xab));
  EXPECT_EQ(iss.load_word(0x200), -2);
}

TEST(IssExec, BranchTakenAndDelaySlotExecutes) {
  Iss iss = make_iss();
  run_asm(iss, R"(
    movi r4, 1
    beq  r4, r4, target
    movi r5, 77      ; delay slot: executes
    movi r6, 88      ; skipped
  target:
    halt
  )");
  EXPECT_EQ(iss.reg(5), 77);
  EXPECT_EQ(iss.reg(6), 0);
}

TEST(IssExec, BranchNotTakenFallsThrough) {
  Iss iss = make_iss();
  run_asm(iss, R"(
    movi r4, 1
    bne  r4, r4, away
    nop
    movi r6, 88
  away:
    halt
  )");
  EXPECT_EQ(iss.reg(6), 88);
}

TEST(IssExec, BackwardBranchLoop) {
  Iss iss = make_iss();
  const RunResult r = run_asm(iss, R"(
    movi r4, 0
    movi r5, 10
  loop:
    addi r4, r4, 1
    bne  r4, r5, loop
    nop
    halt
  )");
  EXPECT_EQ(iss.reg(4), 10);
  EXPECT_TRUE(r.halted);
  // 2 setup + 10 * (addi + bne + nop-in-delay-or-fallthrough...) + halt
  EXPECT_GT(r.instructions, 20u);
}

TEST(IssExec, JalAndJrImplementCallReturn) {
  Iss iss = make_iss();
  run_asm(iss, R"(
    jal r30, func
    nop
    movi r5, 5       ; after return
    halt
  func:
    movi r4, 4
    jr  r30
    nop
  )");
  EXPECT_EQ(iss.reg(4), 4);
  EXPECT_EQ(iss.reg(5), 5);
}

TEST(IssDeathTest, LoadProgramAbortsOnImageLargerThanMemory) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Checked in every build type, -DNDEBUG included: copying only the words
  // that fit would run a shorter program as if it were the whole image.
  IssConfig cfg;
  cfg.memory_bytes = 64 * kInstrBytes;
  Iss iss = make_iss(cfg);
  const std::vector<Instruction> fits(64, Instruction{Opcode::kNop});
  iss.load_program(fits, 0);  // exactly full: accepted
  const std::vector<Instruction> one_word(1, Instruction{Opcode::kNop});
  EXPECT_DEATH(iss.load_program(one_word, 64),
               "1-word image at word 64 does not fit the 64-word");
  const std::vector<Instruction> too_long(65, Instruction{Opcode::kNop});
  EXPECT_DEATH(iss.load_program(too_long, 0),
               "65-word image at word 0 does not fit");
  EXPECT_DEATH(iss.load_program(fits, 1), "64-word image at word 1");
}

TEST(IssTiming, LoadUseInterlockAddsOneStall) {
  IssConfig cfg;
  cfg.pipeline_fill_cycles = 0;
  Iss a = make_iss(cfg);
  const RunResult dependent = run_asm(a, R"(
    movi r4, 0x100
    lw   r5, 0(r4)
    add  r6, r5, r5   ; uses the load result immediately
    halt
  )");
  Iss b = make_iss(cfg);
  const RunResult spaced = run_asm(b, R"(
    movi r4, 0x100
    lw   r5, 0(r4)
    nop               ; covers the interlock
    add  r6, r5, r5
    halt
  )");
  EXPECT_EQ(dependent.stall_cycles, 1u);
  EXPECT_EQ(spaced.stall_cycles, 0u);
  // Interlocked version: same cycles, one fewer instruction.
  EXPECT_EQ(dependent.cycles, spaced.cycles);
}

TEST(IssTiming, MultiplyTakesThreeCycles) {
  IssConfig cfg;
  cfg.pipeline_fill_cycles = 0;
  Iss a = make_iss(cfg);
  const RunResult with_mul = run_asm(a, "mul r4, r5, r6\n halt");
  Iss b = make_iss(cfg);
  const RunResult with_add = run_asm(b, "add r4, r5, r6\n halt");
  EXPECT_EQ(with_mul.cycles - with_add.cycles, 2u);  // 3 vs 1
}

TEST(IssTiming, PipelineFillChargedPerInvocation) {
  IssConfig cfg;
  cfg.pipeline_fill_cycles = 3;
  Iss iss = make_iss(cfg);
  const RunResult r = run_asm(iss, "halt");
  EXPECT_EQ(r.cycles, 4u);  // 3 fill + 1 halt
}

TEST(IssExec, BudgetExhaustionReportsNotHalted) {
  Iss iss = make_iss();
  const AsmResult r = assemble("loop: j loop\n nop", 0x10);
  ASSERT_TRUE(r.ok());
  iss.load_program(r.program, 0x10);
  iss.set_pc(0x10);
  const RunResult res = iss.run(100);
  EXPECT_FALSE(res.halted);
  EXPECT_EQ(res.instructions, 100u);
}

TEST(IssPower, EnergyPositiveAndAdditive) {
  Iss iss = make_iss();
  const RunResult one = run_asm(iss, "add r4, r5, r6\n halt");
  Iss iss2 = make_iss();
  const RunResult two =
      run_asm(iss2, "add r4, r5, r6\n add r7, r5, r6\n halt");
  EXPECT_GT(one.energy, 0.0);
  EXPECT_GT(two.energy, one.energy);
}

TEST(IssPower, DataIndependentBydefault) {
  // Same instruction sequence, different data values: identical energy.
  Iss a = make_iss();
  run_asm(a, "movi r4, 1\n mul r5, r4, r4\n halt");
  const RunResult ra = run_asm(a, "movi r4, 1\n mul r5, r4, r4\n halt");
  Iss b = make_iss();
  const RunResult rb =
      run_asm(b, "movi r4, 32000\n mul r5, r4, r4\n halt");
  EXPECT_DOUBLE_EQ(ra.energy, rb.energy);
}

TEST(IssPower, DspModeIsDataDependent) {
  Iss a(InstructionPowerModel::dsp_like(0.5), {});
  const RunResult ra = run_asm(a, "movi r4, 0\n add r5, r4, r4\n halt");
  Iss b(InstructionPowerModel::dsp_like(0.5), {});
  const RunResult rb =
      run_asm(b, "movi r4, 0x7fff\n add r5, r4, r4\n halt");
  EXPECT_NE(ra.energy, rb.energy);
}

TEST(IssPower, MemoryInstructionsCostMoreThanAlu) {
  const auto m = InstructionPowerModel::sparclite();
  EXPECT_GT(m.base_current_ma(EnergyClass::kLoad),
            m.base_current_ma(EnergyClass::kAlu));
  EXPECT_GT(m.base_current_ma(EnergyClass::kAlu),
            m.base_current_ma(EnergyClass::kNop));
}

TEST(IssPower, InterInstructionOverheadAffectsEnergy) {
  auto m = InstructionPowerModel::sparclite();
  const Joules same =
      m.instruction_energy(EnergyClass::kAlu, EnergyClass::kAlu, 1);
  const Joules cross =
      m.instruction_energy(EnergyClass::kLoad, EnergyClass::kAlu, 1);
  EXPECT_GT(cross, same);  // ALU after LOAD pays a bigger circuit-state cost
}

TEST(IssPower, EnergyScalesWithVdd) {
  ElectricalParams lo{.vdd_volts = 1.65};
  ElectricalParams hi{.vdd_volts = 3.3};
  const auto ml = InstructionPowerModel::sparclite(lo);
  const auto mh = InstructionPowerModel::sparclite(hi);
  EXPECT_DOUBLE_EQ(
      mh.instruction_energy(EnergyClass::kAlu, EnergyClass::kAlu, 1) /
          ml.instruction_energy(EnergyClass::kAlu, EnergyClass::kAlu, 1),
      2.0);  // E = I * V * t: linear in Vdd at fixed current
}

// --- encoding ---------------------------------------------------------------

class EncodingRoundTrip : public ::testing::TestWithParam<Instruction> {};

TEST_P(EncodingRoundTrip, DecodeEncodeIdentity) {
  const Instruction ins = GetParam();
  EXPECT_EQ(decode(encode(ins)), ins) << disassemble(ins);
}

Instruction mk(Opcode op, unsigned rd, unsigned rs1, unsigned rs2,
               std::int32_t imm) {
  Instruction i;
  i.op = op;
  i.rd = static_cast<std::uint8_t>(rd);
  i.rs1 = static_cast<std::uint8_t>(rs1);
  i.rs2 = static_cast<std::uint8_t>(rs2);
  i.imm = imm;
  return i;
}

INSTANTIATE_TEST_SUITE_P(
    AllFormats, EncodingRoundTrip,
    ::testing::Values(
        mk(Opcode::kNop, 0, 0, 0, 0), mk(Opcode::kHalt, 0, 0, 0, 0),
        mk(Opcode::kAdd, 5, 6, 7, 0), mk(Opcode::kMul, 31, 30, 29, 0),
        mk(Opcode::kMovI, 8, 0, 0, -32768),
        mk(Opcode::kAddI, 9, 10, 0, 32767),
        mk(Opcode::kLw, 4, 1, 0, -4), mk(Opcode::kSw, 0, 1, 9, 124),
        mk(Opcode::kSb, 0, 2, 11, 0),
        mk(Opcode::kBeq, 0, 3, 4, -100), mk(Opcode::kBge, 0, 21, 22, 255),
        mk(Opcode::kJ, 0, 0, 0, 12345), mk(Opcode::kJal, 30, 0, 0, 999),
        mk(Opcode::kJr, 0, 30, 0, 0)));

TEST(Assembler, ReportsUnknownMnemonic) {
  const AsmResult r = assemble("frobnicate r1, r2");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("line 1"), std::string::npos);
}

TEST(Assembler, ReportsBadOperands) {
  EXPECT_FALSE(assemble("add r1, r2").ok());
  EXPECT_FALSE(assemble("movi r99, 1").ok());
  EXPECT_FALSE(assemble("beq r1, r2, nowhere").ok());
}

TEST(Assembler, DuplicateLabelRejected) {
  const AsmResult r = assemble("x: nop\nx: nop");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("duplicate"), std::string::npos);
}

TEST(Assembler, CommentsAndBlankLines) {
  const AsmResult r = assemble(R"(
    ; full comment line
    nop    # trailing comment

    halt
  )");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.program.size(), 2u);
}

TEST(Assembler, LabelArithmeticForwardAndBackward) {
  const AsmResult r = assemble(R"(
  top:
    beq r1, r2, bottom
    nop
    bne r1, r2, top
    nop
  bottom:
    halt
  )");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.program[0].imm, 4);   // forward to halt
  EXPECT_EQ(r.program[2].imm, -2);  // back to top
}

TEST(Assembler, DisassembleReassembleIdentity) {
  const char* src = R"(
    movi r4, 100
    addi r5, r4, -1
    lw   r6, 8(r4)
    sw   r6, 12(r4)
    add  r7, r5, r6
    jr   r30
    nop
    halt
  )";
  const AsmResult first = assemble(src);
  ASSERT_TRUE(first.ok());
  std::string round;
  for (const auto& ins : first.program) round += disassemble(ins) + "\n";
  const AsmResult second = assemble(round);
  ASSERT_TRUE(second.ok()) << second.error;
  EXPECT_EQ(first.program, second.program);
}

}  // namespace
}  // namespace socpower::iss
