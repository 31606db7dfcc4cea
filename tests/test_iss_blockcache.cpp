// The ISS fast path (pre-decoded basic-block cache) must be bit-identical
// to the reference stepping interpreter: same cycles, energy, stalls,
// registers, memory, PC trace and fault reports, for any program. These
// tests run the two paths side by side over randomized programs and over
// targeted corner cases (delay slots, invalidation, faults, budgets).
#include <array>
#include <string>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "iss/assembler.hpp"
#include "iss/iss.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace socpower::iss {
namespace {

IssConfig config_with_cache(bool on) {
  IssConfig c;
  c.block_cache = on;
  return c;
}

Program asm_ok(std::string_view src) {
  AsmResult res = assemble(src);
  EXPECT_TRUE(res.ok()) << res.error;
  return res.program;
}

/// Everything observable about one run() plus the architectural state after
/// it. Compared field-for-field (energy with EXPECT_EQ: bit identity, not
/// tolerance).
struct Observed {
  RunResult r;
  std::array<std::int32_t, kNumRegisters> regs{};
  std::vector<std::uint32_t> trace;
  std::uint32_t pc = 0;
  std::uint64_t mem_hash = 0;
};

std::uint64_t hash_memory(const Iss& iss, std::uint32_t bytes) {
  std::vector<std::uint8_t> mem(bytes);
  for (std::uint32_t a = 0; a < bytes; ++a) mem[a] = iss.load_byte(a);
  return util::fnv1a64(mem);
}

Observed observe_run(Iss& iss, std::uint64_t budget) {
  Observed o;
  iss.set_pc_trace(&o.trace);
  o.r = iss.run(budget);
  iss.set_pc_trace(nullptr);
  for (int r = 0; r < kNumRegisters; ++r)
    o.regs[static_cast<std::size_t>(r)] = iss.reg(static_cast<unsigned>(r));
  o.pc = iss.pc();
  o.mem_hash = hash_memory(iss, iss.config().memory_bytes);
  return o;
}

void expect_identical(const Observed& off, const Observed& on,
                      const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(off.r.cycles, on.r.cycles);
  EXPECT_EQ(off.r.energy, on.r.energy);  // bitwise, not approximate
  EXPECT_EQ(off.r.instructions, on.r.instructions);
  EXPECT_EQ(off.r.stall_cycles, on.r.stall_cycles);
  EXPECT_EQ(off.r.halted, on.r.halted);
  EXPECT_EQ(off.r.fault, on.r.fault);
  EXPECT_EQ(off.r.fault_addr, on.r.fault_addr);
  EXPECT_EQ(off.regs, on.regs);
  EXPECT_EQ(off.trace, on.trace);
  EXPECT_EQ(off.pc, on.pc);
  EXPECT_EQ(off.mem_hash, on.mem_hash);
}

// -- random program generator ------------------------------------------------

// Opcodes the generator draws from. Control-capable ops are followed by a
// forced non-control instruction so no transfer ever lands in a delay slot
// (the one sequence the ISS asserts against, because the code generator
// never emits it).
const Opcode kPlainOps[] = {
    Opcode::kNop,  Opcode::kMovI, Opcode::kMovHi, Opcode::kAdd,
    Opcode::kSub,  Opcode::kMul,  Opcode::kDiv,   Opcode::kAddI,
    Opcode::kSubI, Opcode::kAnd,  Opcode::kOr,    Opcode::kXor,
    Opcode::kAndI, Opcode::kOrI,  Opcode::kXorI,  Opcode::kSll,
    Opcode::kSrl,  Opcode::kSra,  Opcode::kSllI,  Opcode::kSrlI,
    Opcode::kSraI, Opcode::kSlt,  Opcode::kSltu,  Opcode::kSltI,
    Opcode::kLw,   Opcode::kLb,   Opcode::kLbu,   Opcode::kSw,
    Opcode::kSb};
const Opcode kControlOps[] = {Opcode::kBeq, Opcode::kBne, Opcode::kBlt,
                              Opcode::kBge, Opcode::kJ,   Opcode::kJal,
                              Opcode::kJr,  Opcode::kHalt};

Instruction random_plain(Rng& rng) {
  Instruction ins;
  ins.op = kPlainOps[rng.below(std::size(kPlainOps))];
  ins.rd = static_cast<std::uint8_t>(rng.below(kNumRegisters));
  ins.rs1 = static_cast<std::uint8_t>(rng.below(kNumRegisters));
  ins.rs2 = static_cast<std::uint8_t>(rng.below(kNumRegisters));
  ins.imm = static_cast<std::int32_t>(rng.range(-512, 512));
  if (is_load(ins.op) || is_store(ins.op)) {
    // Bias towards valid addresses (r0 base + small offset) but keep some
    // wild accesses so the trap path is compared too.
    if (rng.chance(0.6)) ins.rs1 = 0;
    ins.imm = static_cast<std::int32_t>(
        rng.chance(0.9) ? rng.below(1024) : rng.range(-40000, 80000));
  }
  return ins;
}

Instruction random_control(Rng& rng, std::uint32_t pos, std::uint32_t len) {
  Instruction ins;
  ins.op = kControlOps[rng.below(std::size(kControlOps))];
  ins.rs1 = static_cast<std::uint8_t>(rng.below(kNumRegisters));
  ins.rs2 = static_cast<std::uint8_t>(rng.below(kNumRegisters));
  if (is_branch(ins.op)) {
    // Mostly local, occasionally off the ends (lands in default-HALT imem).
    ins.imm = static_cast<std::int32_t>(rng.range(-8, 10));
    if (static_cast<std::int64_t>(pos) + ins.imm < 0) ins.imm = 1;
  } else if (ins.op == Opcode::kJ || ins.op == Opcode::kJal) {
    ins.imm = static_cast<std::int32_t>(
        rng.chance(0.9) ? rng.below(len) : len + rng.below(500));
    if (ins.op == Opcode::kJal) ins.rd = 30;
  }
  return ins;
}

/// A random program: straight-line stretches separated by control ops, with
/// a HALT-heavy tail. Instruction memory outside the program is the default
/// HALT fill, so stray jumps terminate cleanly; the run budget bounds loops.
Program random_program(Rng& rng) {
  const auto len = static_cast<std::uint32_t>(rng.range(8, 96));
  Program prog;
  bool force_plain = true;  // never start with a dangling delay slot producer
  for (std::uint32_t i = 0; i < len; ++i) {
    if (!force_plain && rng.chance(0.22)) {
      prog.push_back(random_control(rng, i, len));
      force_plain = true;  // the delay slot must not transfer
    } else {
      prog.push_back(random_plain(rng));
      force_plain = false;
    }
  }
  prog.push_back(Instruction{Opcode::kHalt});
  return prog;
}

// -- tests --------------------------------------------------------------------

class BlockCacheFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BlockCacheFuzz, BitIdenticalToReferenceInterpreter) {
  const std::uint64_t seed = GetParam();
  Rng rng(Rng::for_stream(seed, 0));
  const InstructionPowerModel model = InstructionPowerModel::sparclite();

  for (int p = 0; p < 40; ++p) {
    SCOPED_TRACE("program " + std::to_string(p));
    const Program prog = random_program(rng);
    Iss off(model, config_with_cache(false));
    Iss on(model, config_with_cache(true));
    off.load_program(prog, 0);
    on.load_program(prog, 0);

    // Cold cache.
    off.set_pc(0);
    on.set_pc(0);
    expect_identical(observe_run(off, 600), observe_run(on, 600), "cold");

    // Warm cache, dirty registers and circuit state (no reset): blocks are
    // replayed with a different incoming energy class and load-use state.
    off.set_pc(0);
    on.set_pc(0);
    expect_identical(observe_run(off, 600), observe_run(on, 600), "warm");

    // Tiny budget: exercises budget expiry mid-program and the
    // block-larger-than-budget fallback to the stepping path.
    off.reset_cpu();
    on.reset_cpu();
    expect_identical(observe_run(off, 7), observe_run(on, 7), "budget 7");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlockCacheFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(BlockCacheFuzzDsp, BitIdenticalWithDataDependentModel) {
  // The data-dependent (DSP-style) term stays live in replay; make sure the
  // Hamming-distance chaining across block boundaries agrees too.
  Rng rng(Rng::for_stream(99, 0));
  const InstructionPowerModel model = InstructionPowerModel::dsp_like(0.05);
  for (int p = 0; p < 15; ++p) {
    SCOPED_TRACE("program " + std::to_string(p));
    const Program prog = random_program(rng);
    Iss off(model, config_with_cache(false));
    Iss on(model, config_with_cache(true));
    off.load_program(prog, 0);
    on.load_program(prog, 0);
    expect_identical(observe_run(off, 600), observe_run(on, 600), "cold");
    off.set_pc(0);
    on.set_pc(0);
    expect_identical(observe_run(off, 600), observe_run(on, 600), "warm");
  }
}

TEST(BlockCache, TakenAndUntakenBranchWithDelaySlot) {
  // The delay-slot addi must execute exactly once whether or not the branch
  // is taken; the branch outcome is steered by the r2 constant.
  for (const bool taken : {true, false}) {
    const std::string src = std::string("      movi r1, 5\n") +
                            (taken ? "      movi r2, 5\n" : "      movi r2, 6\n") +
                            R"(      beq r1, r2, skip
      addi r3, r3, 1
      movi r4, 111
skip: movi r5, 222
      halt
)";
    const Program prog = asm_ok(src);
    Iss off(InstructionPowerModel::sparclite(), config_with_cache(false));
    Iss on(InstructionPowerModel::sparclite(), config_with_cache(true));
    off.load_program(prog, 0);
    on.load_program(prog, 0);
    off.set_pc(0);
    on.set_pc(0);
    expect_identical(observe_run(off, 100), observe_run(on, 100),
                     taken ? "taken" : "untaken");
    EXPECT_EQ(on.reg(3), 1);  // delay slot executed exactly once
    EXPECT_EQ(on.reg(4), taken ? 0 : 111);
    EXPECT_EQ(on.reg(5), 222);
  }
}

TEST(BlockCache, ReplaySeesCurrentRegisterAndMemoryState) {
  // Same block replayed twice with different data must produce different
  // architectural results (the cache precomputes accounting, not values).
  const Program prog = asm_ok(R"(
      lw r1, 0(r0)
      addi r1, r1, 1
      sw r1, 0(r0)
      halt
)");
  Iss iss(InstructionPowerModel::sparclite(), config_with_cache(true));
  iss.load_program(prog, 0);
  iss.store_word(0, 41);
  iss.set_pc(0);
  ASSERT_TRUE(iss.run().halted);
  EXPECT_EQ(iss.load_word(0), 42);
  iss.set_pc(0);
  ASSERT_TRUE(iss.run().halted);
  EXPECT_EQ(iss.load_word(0), 43);
  EXPECT_GE(iss.block_cache_stats().hits, 1u);
}

TEST(BlockCache, LoadProgramInvalidatesCachedBlocks) {
  const Program a = asm_ok("movi r1, 10\nhalt\n");
  const Program b = asm_ok("movi r1, 77\nhalt\n");
  Iss iss(InstructionPowerModel::sparclite(), config_with_cache(true));
  iss.load_program(a, 0);
  iss.set_pc(0);
  ASSERT_TRUE(iss.run().halted);
  EXPECT_EQ(iss.reg(1), 10);
  const std::uint64_t decodes_a = iss.block_cache_stats().decodes;

  iss.load_program(b, 0);  // must drop blocks decoded from program A
  iss.reset_cpu();
  ASSERT_TRUE(iss.run().halted);
  EXPECT_EQ(iss.reg(1), 77);
  EXPECT_GE(iss.block_cache_stats().invalidations, 2u);  // both loads
  EXPECT_GT(iss.block_cache_stats().decodes, decodes_a);
}

TEST(BlockCache, SurvivesResetCpu) {
  const Program prog =
      asm_ok("movi r1, 3\nmovi r2, 4\nadd r3, r1, r2\nhalt\n");
  Iss iss(InstructionPowerModel::sparclite(), config_with_cache(true));
  iss.load_program(prog, 0);
  iss.set_pc(0);
  ASSERT_TRUE(iss.run().halted);
  const std::uint64_t decodes = iss.block_cache_stats().decodes;
  iss.reset_cpu();  // the co-estimator does this before every transition
  ASSERT_TRUE(iss.run().halted);
  EXPECT_EQ(iss.reg(3), 7);
  EXPECT_EQ(iss.block_cache_stats().decodes, decodes);  // pure replay
  EXPECT_GE(iss.block_cache_stats().hits, 1u);
}

TEST(BlockCache, CapacityBoundTriggersGenerationClear) {
  IssConfig cfg = config_with_cache(true);
  cfg.block_cache_max_blocks = 4;
  // Each jump target starts a new block: more distinct blocks than capacity.
  Program prog;
  for (int i = 0; i < 12; ++i) {
    prog.push_back({Opcode::kAddI, 1, 1, 0, 1});
    prog.push_back({Opcode::kBne, 0, 1, 1, 0});  // never taken (r1 != r1 false)
  }
  prog.push_back(Instruction{Opcode::kHalt});
  Iss off(InstructionPowerModel::sparclite(), config_with_cache(false));
  Iss on(InstructionPowerModel::sparclite(), cfg);
  off.load_program(prog, 0);
  on.load_program(prog, 0);
  expect_identical(observe_run(off, 200), observe_run(on, 200), "pass 1");
  off.set_pc(0);
  on.set_pc(0);
  expect_identical(observe_run(off, 200), observe_run(on, 200), "pass 2");
  EXPECT_GE(on.block_cache_stats().capacity_flushes, 1u);
}

TEST(MemoryTrap, OutOfRangeLoadFaultsInsteadOfReadingWild) {
  // r2 = 1 MiB, beyond the 64 KiB data memory.
  const Program prog = asm_ok(R"(
      movi r1, 1
      movhi r2, 16
      lw r3, 0(r2)
      movi r4, 9
      halt
)");
  for (const bool cache : {false, true}) {
    SCOPED_TRACE(cache ? "cache on" : "cache off");
    Iss iss(InstructionPowerModel::sparclite(), config_with_cache(cache));
    iss.load_program(prog, 0);
    iss.set_pc(0);
    const RunResult r = iss.run();
    EXPECT_TRUE(r.fault);
    EXPECT_FALSE(r.halted);
    EXPECT_EQ(r.fault_addr, 1u << 20);
    EXPECT_EQ(r.instructions, 2u);  // the faulting lw is not accounted
    EXPECT_EQ(iss.pc(), 2u);        // left pointing at the lw
    EXPECT_EQ(iss.reg(3), 0);       // load did not retire
    EXPECT_EQ(iss.reg(4), 0);       // nothing after the fault ran
  }
}

TEST(MemoryTrap, OutOfRangeStoreFaults) {
  const Program prog = asm_ok("movi r1, -4\nsw r1, 0(r1)\nhalt\n");
  for (const bool cache : {false, true}) {
    SCOPED_TRACE(cache ? "cache on" : "cache off");
    Iss iss(InstructionPowerModel::sparclite(), config_with_cache(cache));
    iss.load_program(prog, 0);
    iss.set_pc(0);
    const RunResult r = iss.run();
    EXPECT_TRUE(r.fault);
    EXPECT_EQ(r.fault_addr, 0xfffffffcu);  // wraps; checked without overflow
  }
}

TEST(MemoryTrap, FetchPastInstructionMemoryFaults) {
  Iss iss(InstructionPowerModel::sparclite(), config_with_cache(true));
  iss.set_pc(iss.config().memory_bytes / kInstrBytes);  // first bad word
  const RunResult r = iss.run(10);
  EXPECT_TRUE(r.fault);
  EXPECT_FALSE(r.halted);
  EXPECT_EQ(r.instructions, 0u);
}

TEST(MemoryTrap, UndecodableOpcodeFaults) {
  Program prog = asm_ok("movi r1, 5\n");
  Instruction bad;
  bad.op = static_cast<Opcode>(200);
  prog.push_back(bad);
  for (const bool cache : {false, true}) {
    SCOPED_TRACE(cache ? "cache on" : "cache off");
    Iss iss(InstructionPowerModel::sparclite(), config_with_cache(cache));
    iss.load_program(prog, 0);
    iss.set_pc(0);
    const RunResult r = iss.run(10);
    EXPECT_TRUE(r.fault);
    EXPECT_EQ(r.instructions, 1u);
    EXPECT_EQ(iss.pc(), 1u);
  }
}

TEST(BlockCache, DisabledCacheKeepsStatsAtZero) {
  const Program prog = asm_ok("movi r1, 1\nhalt\n");
  Iss iss(InstructionPowerModel::sparclite(), config_with_cache(false));
  iss.load_program(prog, 0);
  iss.set_pc(0);
  ASSERT_TRUE(iss.run().halted);
  EXPECT_EQ(iss.block_cache_stats().hits, 0u);
  EXPECT_EQ(iss.block_cache_stats().decodes, 0u);
}

}  // namespace
}  // namespace socpower::iss
