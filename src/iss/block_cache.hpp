// Pre-decoded basic-block cache for the SLITE ISS — the "ISS fast path".
//
// The ISS dominates co-estimation runtime, and every instruction of the
// reference interpreter pays a decode switch plus two-to-three power-model
// lookups. Power emulation amortizes that bookkeeping over coarser execution
// units; we make the same move in software: the first execution from a PC
// decodes the straight-line run up to the next control transfer (or HALT)
// into a micro-op array whose per-instruction metadata — energy class, base
// cycles, the intra-block inter-instruction energies, the static load-use
// bubbles — is computed once. Re-executions replay the block in a tight
// loop; only the genuinely dynamic terms remain per-instruction work:
//   * the incoming circuit-state boundary (last class before the block),
//   * the entry load-use stall (a load in the previous block/delay slot),
//   * taken-branch penalties (IssConfig::taken_branch_penalty != 0),
//   * the data-dependent ALU term when the model is DSP-like.
// Replay is bit-identical to the reference interpreter by construction: the
// precomputed terms are the very values the interpreter would compute, and
// they are accumulated in the same order.
//
// The cache is bounded: when it reaches `max_blocks` entries the next insert
// clears it wholesale (generation clear). Blocks depend only on instruction
// memory and the power model, so the owner invalidates on load_program();
// reset_cpu() does NOT invalidate — it touches registers and circuit state
// only, and keeping blocks across invocations is precisely what makes the
// co-estimator's per-transition ISS calls cheap.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "iss/isa.hpp"
#include "iss/power_model.hpp"

namespace socpower::iss {

/// One pre-decoded instruction. Everything that is a pure function of the
/// program text and the power model lives here.
struct MicroOp {
  Instruction ins;
  /// instruction_energy(cls[i-1], cls[i], cyc) — fixed because the class
  /// sequence inside a block never changes. Unused for the entry op, whose
  /// predecessor class is dynamic (see DecodedBlock::entry_energy).
  double energy = 0.0;
  std::uint8_t cls = 0;           // EnergyClass, pre-resolved
  std::uint8_t cyc = 1;           // base_cycles, pre-resolved
  bool stall_before = false;      // static intra-block load-use bubble
  bool sets_load_dest = false;    // is_load && rd != 0
};

/// How a decoded block hands control back to the run loop.
enum class BlockEnd : std::uint8_t {
  kFallthrough,  // length-capped (or decode barrier): continue at entry + n
  kBranch,       // conditional PC-relative branch (delay slot follows)
  kJump,         // kJ / kJal: unconditional, static target
  kJumpReg,      // kJr: unconditional, dynamic target
  kHalt,
};

struct DecodedBlock {
  std::uint32_t entry = 0;  // entry word address
  BlockEnd end = BlockEnd::kFallthrough;
  /// Registers read by ops[0] under the interlock rules; combined with the
  /// live last-load destination to price the entry bubble.
  std::uint32_t entry_read_mask = 0;
  /// Entry boundary energy of ops[0], one slot per possible incoming class.
  std::array<double, kNumEnergyClasses> entry_energy{};
  std::vector<MicroOp> ops;  // ops.back() is the terminator unless kFallthrough
  /// Delay-slot fusion: when the block ends in a transfer, the architectural
  /// delay slot is the instruction at entry + ops.size() — also static, so
  /// its metadata decodes with the block (predecessor class is the
  /// terminator's; no entry table needed, and no stall is possible because
  /// branches and jumps never load). Valid only when `has_delay`; unset when
  /// the slot holds a control-capable or undecodable instruction, which the
  /// stepping path must execute to keep its diagnostics.
  MicroOp delay;
  bool has_delay = false;
};

struct BlockCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t decodes = 0;        // blocks decoded and inserted
  std::uint64_t capacity_flushes = 0;  // generation clears at max_blocks
  std::uint64_t invalidations = 0;  // explicit clears (load_program)
};

/// Bounded PC-keyed store of decoded blocks. Not thread-safe — each Iss owns
/// one, and Iss instances are never shared across threads (the parallel
/// explore paths give every exploration point its own CoEstimator/Iss).
class BlockCache {
 public:
  /// `index_words` is the instruction-memory size in words: lookups go
  /// through a direct-mapped pointer table (one load per block entry — a
  /// hash probe per four-instruction block would eat much of the win).
  BlockCache(std::size_t max_blocks, std::size_t index_words)
      : index_(index_words, nullptr), max_blocks_(max_blocks) {}

  /// Cached block entered at `entry`, or nullptr. Counts a hit when found.
  /// Precondition: entry < index_words.
  [[nodiscard]] const DecodedBlock* find(std::uint32_t entry) {
    const DecodedBlock* b = index_[entry];
    if (b) ++stats_.hits;
    return b;
  }
  /// Stores `block` (clearing the cache first when full) and returns the
  /// stored copy, valid until the next insert/invalidate.
  const DecodedBlock* insert(DecodedBlock block);
  void invalidate();

  [[nodiscard]] const BlockCacheStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t size() const { return blocks_.size(); }

  /// True when a block entered at `entry` is cached; counts nothing.
  [[nodiscard]] bool contains(std::uint32_t entry) const {
    return entry < index_.size() && index_[entry] != nullptr;
  }
  /// Entry PCs of every cached block, ascending. Serve checkpoints export
  /// only these keys: decode_block() is a pure function of instruction
  /// memory and the power model, so re-decoding on restore reproduces
  /// identical blocks (and identical replay energies).
  [[nodiscard]] std::vector<std::uint32_t> entry_pcs() const;

 private:
  /// Drops every block and its index slot.
  void clear();

  std::vector<const DecodedBlock*> index_;  // direct-mapped view of blocks_
  std::unordered_map<std::uint32_t, std::unique_ptr<DecodedBlock>> blocks_;
  std::size_t max_blocks_;
  BlockCacheStats stats_;
};

/// Decodes the basic block entered at `entry`: the straight-line run up to
/// and including the first control-capable instruction (branch, jump, HALT),
/// capped at `max_ops` micro-ops. Returns a block with empty `ops` when
/// `entry` lies outside instruction memory (the caller falls back to the
/// stepping interpreter, which reports the fetch fault). Instructions with
/// malformed register fields or an undecodable opcode act as decode
/// barriers: the block ends before them and they execute on the reference
/// path, preserving its diagnostics.
[[nodiscard]] DecodedBlock decode_block(std::span<const Instruction> imem,
                                        std::uint32_t entry,
                                        const InstructionPowerModel& model,
                                        std::uint32_t max_ops);

}  // namespace socpower::iss
