#include "iss/block_cache.hpp"

#include <algorithm>
#include <utility>

namespace socpower::iss {

namespace {

/// Can this opcode redirect control (and therefore terminate a block)?
bool ends_block(Opcode op) {
  return is_branch(op) || is_jump(op) || op == Opcode::kHalt;
}

BlockEnd end_kind(Opcode op) {
  if (is_branch(op)) return BlockEnd::kBranch;
  if (op == Opcode::kJr) return BlockEnd::kJumpReg;
  if (op == Opcode::kHalt) return BlockEnd::kHalt;
  return BlockEnd::kJump;  // kJ / kJal
}

/// Instructions the decoder refuses to lift: an opcode outside the ISA or a
/// register field outside the file. The stepping interpreter defines their
/// (trap) behaviour; lifting them would duplicate that policy here.
bool decode_barrier(const Instruction& ins) {
  return static_cast<std::size_t>(ins.op) >= kNumOpcodes ||
         ins.rd >= kNumRegisters || ins.rs1 >= kNumRegisters ||
         ins.rs2 >= kNumRegisters;
}

}  // namespace

const DecodedBlock* BlockCache::insert(DecodedBlock block) {
  if (blocks_.size() >= max_blocks_) {
    // Generation clear: wholesale flush is simpler than LRU and the working
    // set of a CFSM program is far below any sane capacity anyway.
    clear();
    ++stats_.capacity_flushes;
  }
  ++stats_.decodes;
  auto owned = std::make_unique<DecodedBlock>(std::move(block));
  const DecodedBlock* out = owned.get();
  blocks_[out->entry] = std::move(owned);
  if (out->entry < index_.size()) index_[out->entry] = out;
  return out;
}

std::vector<std::uint32_t> BlockCache::entry_pcs() const {
  std::vector<std::uint32_t> pcs;
  pcs.reserve(blocks_.size());
  for (const auto& [entry, block] : blocks_) pcs.push_back(entry);
  std::sort(pcs.begin(), pcs.end());
  return pcs;
}

void BlockCache::clear() {
  // Only cached entries hold index slots, so clearing theirs empties the
  // index without sweeping the whole instruction-memory-sized table.
  for (const auto& [entry, block] : blocks_)
    if (entry < index_.size()) index_[entry] = nullptr;
  blocks_.clear();
}

void BlockCache::invalidate() {
  clear();
  ++stats_.invalidations;
}

DecodedBlock decode_block(std::span<const Instruction> imem,
                          std::uint32_t entry,
                          const InstructionPowerModel& model,
                          std::uint32_t max_ops) {
  DecodedBlock blk;
  blk.entry = entry;
  if (max_ops == 0) max_ops = 1;

  EnergyClass prev_cls = EnergyClass::kNop;  // placeholder until op 1
  std::uint8_t prev_load_dest = 0;
  std::uint32_t pc = entry;
  while (pc < imem.size() && blk.ops.size() < max_ops) {
    const Instruction& ins = imem[pc];
    if (decode_barrier(ins)) break;  // executes on the reference path

    MicroOp m;
    m.ins = ins;
    const EnergyClass cls = energy_class(ins.op);
    m.cls = static_cast<std::uint8_t>(cls);
    m.cyc = static_cast<std::uint8_t>(base_cycles(ins.op));
    m.sets_load_dest = is_load(ins.op) && ins.rd != 0;

    if (blk.ops.empty()) {
      // The entry op's predecessor class and incoming load-use hazard are
      // only known at replay time: tabulate the boundary energy over every
      // possible incoming class and record which registers the op reads.
      blk.entry_read_mask = reg_read_mask(ins);
      for (std::size_t p = 0; p < kNumEnergyClasses; ++p)
        blk.entry_energy[p] = model.instruction_energy(
            static_cast<EnergyClass>(p), cls, m.cyc);
    } else {
      m.stall_before = prev_load_dest != 0 &&
                       ((reg_read_mask(ins) >> prev_load_dest) & 1u) != 0;
      m.energy = model.instruction_energy(prev_cls, cls, m.cyc);
    }

    prev_cls = cls;
    prev_load_dest = m.sets_load_dest ? ins.rd : std::uint8_t{0};
    const Opcode op = ins.op;
    blk.ops.push_back(m);
    if (ends_block(op)) {
      blk.end = end_kind(op);
      break;
    }
    ++pc;
  }

  // Delay-slot fusion: when the terminator can transfer, the instruction at
  // entry + n is the architectural delay slot and everything about its
  // accounting is static (its predecessor is always the terminator, which is
  // never a load, so it cannot stall either).
  if (blk.end == BlockEnd::kBranch || blk.end == BlockEnd::kJump ||
      blk.end == BlockEnd::kJumpReg) {
    const std::uint32_t slot = entry + static_cast<std::uint32_t>(blk.ops.size());
    if (slot < imem.size() && !decode_barrier(imem[slot]) &&
        !ends_block(imem[slot].op)) {
      const Instruction& ins = imem[slot];
      MicroOp& m = blk.delay;
      m.ins = ins;
      const EnergyClass cls = energy_class(ins.op);
      m.cls = static_cast<std::uint8_t>(cls);
      m.cyc = static_cast<std::uint8_t>(base_cycles(ins.op));
      m.sets_load_dest = is_load(ins.op) && ins.rd != 0;
      m.energy = model.instruction_energy(prev_cls, cls, m.cyc);
      blk.has_delay = true;
    }
  }
  return blk;
}

}  // namespace socpower::iss
