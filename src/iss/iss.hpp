// The SLITE instruction-set simulator.
//
// This plays the role of the enhanced SPARCsim in the paper's Figure 2(b):
// the simulation master loads code for one CFSM path, points the PC at it,
// and runs to the HALT breakpoint; the ISS returns cycle and energy
// statistics for exactly the instructions simulated. Timing models the
// SPARClite features the paper lists — register interlocks (load-use),
// delayed branches, multi-cycle multiply/divide — plus a per-invocation
// pipeline-fill charge. Caches are NOT modelled here (the ISS assumes 100 %
// hits, per Section 3); cache penalties are added by the master from the
// fast cache simulator.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "iss/block_cache.hpp"
#include "iss/isa.hpp"
#include "iss/power_model.hpp"
#include "util/units.hpp"

namespace socpower::iss {

struct RunResult {
  Cycles cycles = 0;
  Joules energy = 0.0;
  std::uint64_t instructions = 0;
  std::uint64_t stall_cycles = 0;
  bool halted = false;  // false => instruction budget exhausted or fault
  /// True when execution trapped: an instruction fetch, load or store fell
  /// outside memory, or an undecodable opcode was fetched. The faulting
  /// instruction is not accounted (a fetch fault is not even an executed
  /// instruction); the PC is left pointing at it and `fault_addr` holds the
  /// offending byte address. Replaces the silent out-of-bounds access the
  /// former assert-only checks permitted in release builds.
  bool fault = false;
  std::uint32_t fault_addr = 0;
};

struct IssConfig {
  std::uint32_t memory_bytes = 1u << 16;
  /// Pipeline-fill cycles charged at every invocation (the master resumes
  /// the processor at a breakpoint; the pipeline refills).
  unsigned pipeline_fill_cycles = 3;
  /// Extra stall cycles on a taken branch beyond the delay slot (0 on
  /// SPARClite: the delay slot hides the redirect).
  unsigned taken_branch_penalty = 0;
  std::uint64_t default_max_instructions = 10'000'000;
  /// Pre-decoded basic-block cache (the ISS fast path). Results are
  /// bit-identical with the cache on or off; turn it off only to benchmark
  /// the reference interpreter or to bisect a suspected cache bug.
  bool block_cache = true;
  std::uint32_t block_cache_max_blocks = 2048;
  /// Straight-line runs longer than this decode into multiple blocks.
  std::uint32_t block_cache_max_ops = 64;
};

class Iss {
 public:
  explicit Iss(InstructionPowerModel model, IssConfig config = {});

  // -- program / state ------------------------------------------------------
  /// Copies `prog` into instruction memory at word address `base_word`.
  /// An image that does not fit aborts with a message in every build type.
  void load_program(std::span<const Instruction> prog,
                    std::uint32_t base_word);
  void set_pc(std::uint32_t word_addr) { pc_ = word_addr; }
  [[nodiscard]] std::uint32_t pc() const { return pc_; }

  /// Out-of-range registers assert in debug and read as 0 / ignore writes in
  /// release; out-of-range addresses assert and read as 0 / drop the store.
  /// (Execution-time accesses trap instead — see RunResult::fault.)
  [[nodiscard]] std::int32_t reg(unsigned r) const;
  void set_reg(unsigned r, std::int32_t v);

  [[nodiscard]] std::int32_t load_word(std::uint32_t addr) const;
  void store_word(std::uint32_t addr, std::int32_t v);
  [[nodiscard]] std::uint8_t load_byte(std::uint32_t addr) const;
  void store_byte(std::uint32_t addr, std::uint8_t v);

  /// Clears registers and the inter-instruction power state; memory and the
  /// loaded program are preserved (the master reloads data explicitly).
  void reset_cpu();

  // -- execution ------------------------------------------------------------
  /// Runs from the current PC until HALT or the instruction budget runs out.
  /// Accumulates nothing across calls: the result covers this call only.
  RunResult run(std::uint64_t max_instructions = 0);

  /// When non-null, every executed instruction's byte address is appended
  /// (test/diagnostic aid; the production cache stream comes from the
  /// master's static per-path traces, as in the paper).
  void set_pc_trace(std::vector<std::uint32_t>* sink) { pc_trace_ = sink; }

  [[nodiscard]] const InstructionPowerModel& power_model() const {
    return model_;
  }
  [[nodiscard]] const IssConfig& config() const { return config_; }
  /// Fast-path counters (hits/decodes/flushes); all zero when the block
  /// cache is disabled.
  [[nodiscard]] const BlockCacheStats& block_cache_stats() const {
    return blocks_.stats();
  }

  // -- checkpoint/restore ----------------------------------------------------
  /// Entry PCs of every cached decoded block, ascending.
  [[nodiscard]] std::vector<std::uint32_t> cached_block_entries() const {
    return blocks_.entry_pcs();
  }
  /// Pre-decode the block entered at `entry` into the cache: exactly the
  /// insert run() would perform on that PC's first execution, so a restored
  /// process replays warm without changing any replayed energy. Ignores
  /// out-of-range or already-cached entries; no-op with the cache disabled.
  void warm_block(std::uint32_t entry);

 private:
  /// Delay-slot bookkeeping. Deliberately local to each run() call, exactly
  /// as in the original interpreter: a budget that expires between a taken
  /// branch and its delay slot drops the pending redirect.
  struct Flow {
    bool in_delay_slot = false;
    std::uint32_t pending_target = 0;
  };
  enum class Step : std::uint8_t { kOk, kHalt, kFault };
  /// Architectural effect of one instruction (register/memory writes happen
  /// inside operate(); control and trap outcomes are returned).
  struct ExecOut {
    bool transfer = false;
    bool fault = false;
    std::uint32_t target = 0;
    std::uint32_t fault_addr = 0;
  };

  /// Executes `ins` given its operand values: the single definition of SLITE
  /// architectural semantics, shared by the stepping interpreter and block
  /// replay so the two paths cannot drift.
  ExecOut operate(const Instruction& ins, std::int32_t a, std::int32_t b,
                  std::uint32_t pc_word);
  /// Reference path: one instruction with full decode-and-lookup accounting.
  Step step_one(RunResult& r, Flow& flow);
  /// Fast path: replays a pre-decoded block (plus its fused delay slot when
  /// the terminator transfers), accounting with the decode-time metadata and
  /// consuming `budget` for the instructions actually executed.
  /// Bit-identical to step_one() over the same instructions.
  Step exec_block(const DecodedBlock& blk, RunResult& r, Flow& flow,
                  std::uint64_t& budget);

  InstructionPowerModel model_;
  IssConfig config_;
  std::vector<Instruction> imem_;      // decoded instruction memory
  std::vector<std::uint8_t> dmem_;     // byte-addressable data memory
  BlockCache blocks_;                  // invalidated by load_program()
  std::int32_t regs_[kNumRegisters] = {};
  std::uint32_t pc_ = 0;
  EnergyClass last_class_ = EnergyClass::kNop;  // circuit state across calls
  std::uint8_t last_load_dest_ = 0;    // 0 == none (r0 is never a load dest)
  std::uint32_t last_alu_operands_ = 0;  // data-dependent term state
  std::vector<std::uint32_t>* pc_trace_ = nullptr;
};

}  // namespace socpower::iss
