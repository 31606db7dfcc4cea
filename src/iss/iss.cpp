#include "iss/iss.hpp"

#include <bit>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "telemetry/registry.hpp"

namespace socpower::iss {

namespace {

/// Does `ins` read general register `r`? Used for the load-use interlock on
/// the reference path. Unlike reg_read_mask() this accepts any `r`, so it
/// stays well defined for malformed register fields the block decoder
/// refuses to lift.
bool reads_reg(const Instruction& ins, unsigned r) {
  if (r == 0) return false;  // r0 never interlocks
  switch (ins.op) {
    case Opcode::kNop:
    case Opcode::kHalt:
    case Opcode::kMovI:
    case Opcode::kMovHi:
    case Opcode::kJ:
    case Opcode::kJal:
      return false;
    case Opcode::kJr:
      return ins.rs1 == r;
    default:
      break;
  }
  if (ins.rs1 == r) return true;
  // rs2 read by R-type ALU, branches and stores.
  const bool has_rs2 = is_branch(ins.op) || is_store(ins.op) ||
                       (!is_load(ins.op) && ins.op != Opcode::kAddI &&
                        ins.op != Opcode::kSubI && ins.op != Opcode::kAndI &&
                        ins.op != Opcode::kOrI && ins.op != Opcode::kXorI &&
                        ins.op != Opcode::kSllI && ins.op != Opcode::kSrlI &&
                        ins.op != Opcode::kSraI && ins.op != Opcode::kSltI);
  return has_rs2 && ins.rs2 == r;
}

}  // namespace

Iss::Iss(InstructionPowerModel model, IssConfig config)
    : model_(std::move(model)), config_(config),
      imem_(config.memory_bytes / kInstrBytes, Instruction{Opcode::kHalt}),
      dmem_(config.memory_bytes, 0),
      blocks_(config.block_cache_max_blocks ? config.block_cache_max_blocks
                                            : 1,
              config.memory_bytes / kInstrBytes) {}

void Iss::load_program(std::span<const Instruction> prog,
                       std::uint32_t base_word) {
  // Checked in every build type: copying only the words that fit would
  // leave a shorter program running as if it were the whole image.
  if (base_word > imem_.size() || prog.size() > imem_.size() - base_word) {
    std::fprintf(stderr,
                 "Iss: a %zu-word image at word %u does not fit the "
                 "%zu-word instruction memory — refusing to load\n",
                 prog.size(), base_word, imem_.size());
    std::abort();
  }
  std::copy(prog.begin(), prog.end(), imem_.begin() + base_word);
  // Decoded blocks alias the old instruction memory contents.
  blocks_.invalidate();
  telemetry::registry().counter("iss.block_cache.invalidations").add();
}

void Iss::warm_block(std::uint32_t entry) {
  if (!config_.block_cache || entry >= imem_.size()) return;
  if (blocks_.contains(entry)) return;
  blocks_.insert(decode_block(imem_, entry, model_, config_.block_cache_max_ops));
}

std::int32_t Iss::reg(unsigned r) const {
  assert(r < kNumRegisters);
  return r == 0 || r >= kNumRegisters ? 0 : regs_[r];
}

void Iss::set_reg(unsigned r, std::int32_t v) {
  assert(r < kNumRegisters);
  if (r != 0 && r < kNumRegisters) regs_[r] = v;
}

std::int32_t Iss::load_word(std::uint32_t addr) const {
  assert(std::uint64_t{addr} + 4 <= dmem_.size());
  if (std::uint64_t{addr} + 4 > dmem_.size()) return 0;
  std::int32_t v;
  std::memcpy(&v, dmem_.data() + addr, 4);
  return v;
}

void Iss::store_word(std::uint32_t addr, std::int32_t v) {
  assert(std::uint64_t{addr} + 4 <= dmem_.size());
  if (std::uint64_t{addr} + 4 > dmem_.size()) return;
  std::memcpy(dmem_.data() + addr, &v, 4);
}

std::uint8_t Iss::load_byte(std::uint32_t addr) const {
  assert(addr < dmem_.size());
  return addr < dmem_.size() ? dmem_[addr] : std::uint8_t{0};
}

void Iss::store_byte(std::uint32_t addr, std::uint8_t v) {
  assert(addr < dmem_.size());
  if (addr < dmem_.size()) dmem_[addr] = v;
}

void Iss::reset_cpu() {
  std::memset(regs_, 0, sizeof regs_);
  pc_ = 0;
  last_class_ = EnergyClass::kNop;
  last_load_dest_ = 0;
  last_alu_operands_ = 0;
  // The block cache survives on purpose: it depends only on instruction
  // memory and the power model, and the co-estimator resets the CPU before
  // every transition — flushing here would forfeit exactly the cross-
  // invocation reuse the cache exists for.
}

// Forced inlining matters here: operate() sits on the per-instruction hot
// path of both the stepping interpreter and block replay, and the call
// overhead alone is a measurable slice of the replay budget.
#if defined(__GNUC__)
__attribute__((always_inline)) inline
#endif
Iss::ExecOut Iss::operate(const Instruction& ins, std::int32_t a,
                          std::int32_t b, std::uint32_t pc_word) {
  const auto ua = static_cast<std::uint32_t>(a);
  const auto ub = static_cast<std::uint32_t>(b);
  ExecOut out;
  switch (ins.op) {
    case Opcode::kNop:
      break;
    case Opcode::kHalt:
      break;
    case Opcode::kMovI:
      set_reg(ins.rd, ins.imm);
      break;
    case Opcode::kMovHi:
      set_reg(ins.rd,
              static_cast<std::int32_t>(
                  (static_cast<std::uint32_t>(ins.imm) & 0xffffu) << 16));
      break;
    case Opcode::kAdd: set_reg(ins.rd, static_cast<std::int32_t>(ua + ub)); break;
    case Opcode::kSub: set_reg(ins.rd, static_cast<std::int32_t>(ua - ub)); break;
    case Opcode::kMul: set_reg(ins.rd, static_cast<std::int32_t>(ua * ub)); break;
    case Opcode::kDiv:
      // INT_MIN / -1 overflows; define it to wrap (quotient == dividend).
      if (b == 0)
        set_reg(ins.rd, 0);
      else if (a == std::numeric_limits<std::int32_t>::min() && b == -1)
        set_reg(ins.rd, a);
      else
        set_reg(ins.rd, a / b);
      break;
    case Opcode::kAddI:
      set_reg(ins.rd, static_cast<std::int32_t>(
                          ua + static_cast<std::uint32_t>(ins.imm)));
      break;
    case Opcode::kSubI:
      set_reg(ins.rd, static_cast<std::int32_t>(
                          ua - static_cast<std::uint32_t>(ins.imm)));
      break;
    case Opcode::kAnd: set_reg(ins.rd, a & b); break;
    case Opcode::kOr: set_reg(ins.rd, a | b); break;
    case Opcode::kXor: set_reg(ins.rd, a ^ b); break;
    // Logical immediates zero-extend (MIPS convention), so building a wide
    // constant as movhi + ori is exact.
    case Opcode::kAndI: set_reg(ins.rd, a & (ins.imm & 0xffff)); break;
    case Opcode::kOrI: set_reg(ins.rd, a | (ins.imm & 0xffff)); break;
    case Opcode::kXorI: set_reg(ins.rd, a ^ (ins.imm & 0xffff)); break;
    case Opcode::kSll: set_reg(ins.rd, static_cast<std::int32_t>(ua << (ub & 31u))); break;
    case Opcode::kSrl: set_reg(ins.rd, static_cast<std::int32_t>(ua >> (ub & 31u))); break;
    case Opcode::kSra: set_reg(ins.rd, a >> (ub & 31u)); break;
    case Opcode::kSllI: set_reg(ins.rd, static_cast<std::int32_t>(ua << (ins.imm & 31))); break;
    case Opcode::kSrlI: set_reg(ins.rd, static_cast<std::int32_t>(ua >> (ins.imm & 31))); break;
    case Opcode::kSraI: set_reg(ins.rd, a >> (ins.imm & 31)); break;
    case Opcode::kSlt: set_reg(ins.rd, a < b ? 1 : 0); break;
    case Opcode::kSltu: set_reg(ins.rd, ua < ub ? 1 : 0); break;
    case Opcode::kSltI: set_reg(ins.rd, a < ins.imm ? 1 : 0); break;
    case Opcode::kBeq:
      if (a == b) { out.transfer = true; out.target = pc_word + static_cast<std::uint32_t>(ins.imm); }
      break;
    case Opcode::kBne:
      if (a != b) { out.transfer = true; out.target = pc_word + static_cast<std::uint32_t>(ins.imm); }
      break;
    case Opcode::kBlt:
      if (a < b) { out.transfer = true; out.target = pc_word + static_cast<std::uint32_t>(ins.imm); }
      break;
    case Opcode::kBge:
      if (a >= b) { out.transfer = true; out.target = pc_word + static_cast<std::uint32_t>(ins.imm); }
      break;
    case Opcode::kJ:
      out.transfer = true;
      out.target = static_cast<std::uint32_t>(ins.imm);
      break;
    case Opcode::kJal:
      set_reg(ins.rd, static_cast<std::int32_t>(pc_word + 2));  // past delay slot
      out.transfer = true;
      out.target = static_cast<std::uint32_t>(ins.imm);
      break;
    case Opcode::kJr:
      out.transfer = true;
      out.target = ua;
      break;
    case Opcode::kLw: {
      const std::uint32_t addr = ua + static_cast<std::uint32_t>(ins.imm);
      if (std::uint64_t{addr} + 4 > dmem_.size()) {
        out.fault = true;
        out.fault_addr = addr;
        break;
      }
      std::int32_t v;
      std::memcpy(&v, dmem_.data() + addr, 4);
      set_reg(ins.rd, v);
      break;
    }
    case Opcode::kLb: {
      const std::uint32_t addr = ua + static_cast<std::uint32_t>(ins.imm);
      if (addr >= dmem_.size()) {
        out.fault = true;
        out.fault_addr = addr;
        break;
      }
      set_reg(ins.rd, static_cast<std::int8_t>(dmem_[addr]));
      break;
    }
    case Opcode::kLbu: {
      const std::uint32_t addr = ua + static_cast<std::uint32_t>(ins.imm);
      if (addr >= dmem_.size()) {
        out.fault = true;
        out.fault_addr = addr;
        break;
      }
      set_reg(ins.rd, dmem_[addr]);
      break;
    }
    case Opcode::kSw: {
      const std::uint32_t addr = ua + static_cast<std::uint32_t>(ins.imm);
      if (std::uint64_t{addr} + 4 > dmem_.size()) {
        out.fault = true;
        out.fault_addr = addr;
        break;
      }
      std::memcpy(dmem_.data() + addr, &b, 4);
      break;
    }
    case Opcode::kSb: {
      const std::uint32_t addr = ua + static_cast<std::uint32_t>(ins.imm);
      if (addr >= dmem_.size()) {
        out.fault = true;
        out.fault_addr = addr;
        break;
      }
      dmem_[addr] = static_cast<std::uint8_t>(ub & 0xffu);
      break;
    }
    case Opcode::kOpcodeCount:
    default:
      // Undecodable opcode: trap rather than execute garbage.
      out.fault = true;
      out.fault_addr = pc_word * kInstrBytes;
      break;
  }
  return out;
}

Iss::Step Iss::step_one(RunResult& r, Flow& flow) {
  if (pc_ >= imem_.size()) {
    r.fault = true;
    r.fault_addr = pc_ * kInstrBytes;
    return Step::kFault;
  }
  const Instruction& ins = imem_[pc_];
  if (pc_trace_) pc_trace_->push_back(pc_ * kInstrBytes);

  // Load-use interlock: one bubble when the previous instruction loaded a
  // register this instruction reads.
  unsigned stalls = 0;
  if (last_load_dest_ != 0 && reads_reg(ins, last_load_dest_)) stalls = 1;

  const std::int32_t a = reg(ins.rs1);
  const std::int32_t b = reg(ins.rs2);
  const auto ua = static_cast<std::uint32_t>(a);
  const auto ub = static_cast<std::uint32_t>(b);

  const ExecOut out = operate(ins, a, b, pc_);
  if (out.fault) {
    // The faulting instruction is traced but not accounted; pc_ stays on it.
    r.fault = true;
    r.fault_addr = out.fault_addr;
    return Step::kFault;
  }

  unsigned extra_cycles = 0;
  if (out.transfer && is_branch(ins.op))
    extra_cycles = config_.taken_branch_penalty;

  // -- accounting -----------------------------------------------------------
  const EnergyClass cls = energy_class(ins.op);
  const unsigned cyc = base_cycles(ins.op) + extra_cycles;
  r.cycles += cyc + stalls;
  r.stall_cycles += stalls;
  r.instructions += 1;
  r.energy += model_.instruction_energy(last_class_, cls, cyc);
  if (stalls) r.energy += model_.stall_energy(stalls);
  if (model_.data_dependent() && cls == EnergyClass::kAlu) {
    // Mix the operands asymmetrically so identical operands still carry
    // their value into the signature (a ^ a would always be 0).
    const std::uint32_t sig = ua ^ ((ub << 16) | (ub >> 16));
    r.energy += model_.data_energy(
        static_cast<unsigned>(std::popcount(sig ^ last_alu_operands_)));
    last_alu_operands_ = sig;
  }
  last_class_ = cls;
  last_load_dest_ =
      is_load(ins.op) && ins.rd != 0 ? ins.rd : std::uint8_t{0};

  if (ins.op == Opcode::kHalt) {
    r.halted = true;
    return Step::kHalt;
  }

  // -- control flow (one architectural delay slot) --------------------------
  const std::uint32_t next_pc = pc_ + 1;
  if (flow.in_delay_slot) {
    // A transfer in a delay slot is unpredictable on real hardware; the
    // code generator never emits one. The earlier transfer wins.
    assert(!out.transfer && "control transfer in a delay slot");
    pc_ = flow.pending_target;
    flow.in_delay_slot = false;
  } else if (out.transfer) {
    flow.in_delay_slot = true;
    flow.pending_target = out.target;
    pc_ = next_pc;  // execute the delay slot first
  } else {
    pc_ = next_pc;
  }
  return Step::kOk;
}

Iss::Step Iss::exec_block(const DecodedBlock& blk, RunResult& r, Flow& flow,
                          std::uint64_t& budget) {
  const std::size_t n = blk.ops.size();
  // Accumulate into locals and flush once. The energy accumulator is a
  // running copy of r.energy, not a block subtotal: every add lands on the
  // same partial sum the reference path would have, so rounding — and hence
  // the final bits — matches exactly.
  Cycles cycles = 0;
  std::uint64_t stall_cycles = 0;
  std::uint64_t done = 0;
  double energy = r.energy;
  EnergyClass last_class = last_class_;
  std::uint8_t last_load_dest = last_load_dest_;
  // Hoisted members: operate() writes memory, so the compiler would
  // otherwise reload these across every op.
  const bool data_dep = model_.data_dependent();
  const unsigned penalty = config_.taken_branch_penalty;
  std::vector<std::uint32_t>* const trace = pc_trace_;
  const MicroOp* const ops = blk.ops.data();

  Step step = Step::kOk;
  // Outer loop: a taken terminator whose fused delay slot lands back on this
  // block's own entry (the shape of every hot loop the code generator emits)
  // replays the next iteration directly, skipping the exit / cache lookup /
  // re-entry cost entirely.
  for (;;) {
  bool end_transfer = false;
  std::uint32_t end_target = 0;

  for (std::size_t i = 0; i < n; ++i) {
    const MicroOp& m = ops[i];
    const Instruction& ins = m.ins;
    const std::uint32_t pcw = blk.entry + static_cast<std::uint32_t>(i);
    if (trace) trace->push_back(pcw * kInstrBytes);

    // Intra-block interlocks were resolved at decode time; only the entry
    // op can stall on a load from before the block (or the delay slot).
    unsigned stalls;
    if (i == 0) {
      stalls = (last_load_dest != 0 && last_load_dest < kNumRegisters &&
                ((blk.entry_read_mask >> last_load_dest) & 1u) != 0)
                   ? 1u
                   : 0u;
    } else {
      stalls = m.stall_before ? 1u : 0u;
    }

    // All register fields are < kNumRegisters (decode barrier), and regs_[0]
    // is never written, so the raw reads match reg().
    const std::int32_t a = regs_[ins.rs1];
    const std::int32_t b = regs_[ins.rs2];

    const ExecOut out = operate(ins, a, b, pcw);
    if (out.fault) {
      r.fault = true;
      r.fault_addr = out.fault_addr;
      pc_ = pcw;
      step = Step::kFault;
      break;
    }

    // Only a block-terminating branch can charge the taken penalty.
    unsigned extra_cycles = 0;
    const bool is_end = i + 1 == n;
    if (out.transfer && is_end && blk.end == BlockEnd::kBranch)
      extra_cycles = penalty;

    // -- accounting (decode-time metadata) ----------------------------------
    const auto cls = static_cast<EnergyClass>(m.cls);
    const unsigned cyc = m.cyc + extra_cycles;
    cycles += cyc + stalls;
    stall_cycles += stalls;
    done += 1;
    if (extra_cycles == 0)
      energy += i == 0 ? blk.entry_energy[static_cast<std::size_t>(last_class)]
                       : m.energy;
    else  // penalty changes the cycle count; price it live
      energy += model_.instruction_energy(last_class, cls, cyc);
    if (stalls) energy += model_.stall_energy(stalls);
    if (data_dep && cls == EnergyClass::kAlu) {
      const auto ua = static_cast<std::uint32_t>(a);
      const auto ub = static_cast<std::uint32_t>(b);
      const std::uint32_t sig = ua ^ ((ub << 16) | (ub >> 16));
      energy += model_.data_energy(
          static_cast<unsigned>(std::popcount(sig ^ last_alu_operands_)));
      last_alu_operands_ = sig;
    }
    last_class = cls;
    last_load_dest = m.sets_load_dest ? ins.rd : std::uint8_t{0};

    if (is_end) {
      if (blk.end == BlockEnd::kHalt) {
        r.halted = true;
        pc_ = pcw;  // stay on the HALT, as the reference path does
        step = Step::kHalt;
        break;
      }
      end_transfer = out.transfer;
      end_target = out.target;
    }
  }

  if (step != Step::kOk) break;
  {
    pc_ = blk.entry + static_cast<std::uint32_t>(n);
    if (end_transfer && blk.has_delay) {
      // Fused delay slot: same sequence the stepping path would run, with
      // the decode-time metadata (its predecessor is always the terminator,
      // so neither its boundary energy nor a stall is dynamic). By
      // construction the fused op cannot itself transfer.
      const MicroOp& m = blk.delay;
      const Instruction& ins = m.ins;
      const std::uint32_t pcw = pc_;
      if (trace) trace->push_back(pcw * kInstrBytes);
      const std::int32_t a = regs_[ins.rs1];
      const std::int32_t b = regs_[ins.rs2];
      const ExecOut out = operate(ins, a, b, pcw);
      if (out.fault) {
        r.fault = true;
        r.fault_addr = out.fault_addr;
        step = Step::kFault;
      } else {
        const auto cls = static_cast<EnergyClass>(m.cls);
        cycles += m.cyc;
        done += 1;
        energy += m.energy;
        if (data_dep && cls == EnergyClass::kAlu) {
          const auto ua = static_cast<std::uint32_t>(a);
          const auto ub = static_cast<std::uint32_t>(b);
          const std::uint32_t sig = ua ^ ((ub << 16) | (ub >> 16));
          energy += model_.data_energy(
              static_cast<unsigned>(std::popcount(sig ^ last_alu_operands_)));
          last_alu_operands_ = sig;
        }
        last_class = cls;
        last_load_dest = m.sets_load_dest ? ins.rd : std::uint8_t{0};
        pc_ = end_target;
        // Hot self-loop: back to our own entry with budget for a whole
        // further iteration — stay inside the replay.
        if (end_target == blk.entry && n + 1 <= budget - done) continue;
      }
    } else if (end_transfer) {
      flow.in_delay_slot = true;  // the delay slot runs on the stepping path
      flow.pending_target = end_target;
    }
  }
  break;
  }  // for (;;)

  budget -= done;
  r.cycles += cycles;
  r.stall_cycles += stall_cycles;
  r.instructions += done;
  r.energy = energy;
  last_class_ = last_class;
  last_load_dest_ = last_load_dest;
  return step;
}

RunResult Iss::run(std::uint64_t max_instructions) {
  // Telemetry is per-invocation deltas only — nothing per instruction. The
  // cumulative block-cache stats are diffed across the call so the global
  // counters aggregate correctly over many Iss instances.
  const bool telem = telemetry::enabled();
  const BlockCacheStats cache_before = telem ? blocks_.stats()
                                             : BlockCacheStats{};
  RunResult r;
  // Per-invocation pipeline fill: the master resumes the CPU at a
  // breakpoint; refill cycles draw roughly the stall current.
  r.cycles += config_.pipeline_fill_cycles;
  r.stall_cycles += config_.pipeline_fill_cycles;
  r.energy += model_.stall_energy(config_.pipeline_fill_cycles);
  last_load_dest_ = 0;

  std::uint64_t budget =
      max_instructions ? max_instructions : config_.default_max_instructions;
  Flow flow;
  const bool use_cache = config_.block_cache;
  const auto imem_words = static_cast<std::uint32_t>(imem_.size());

  while (budget > 0) {
    if (use_cache && !flow.in_delay_slot && pc_ < imem_words) {
      const DecodedBlock* blk = blocks_.find(pc_);
      if (!blk)
        blk = blocks_.insert(
            decode_block(imem_, pc_, model_, config_.block_cache_max_ops));
      // Replay only when the whole block (plus a possible fused delay slot)
      // fits the budget: a partial replay would have to re-derive mid-block
      // state, and the reference path is exact for the tail anyway. Empty
      // blocks (entry op is a decode barrier) also fall through to the
      // stepping path.
      if (!blk->ops.empty() &&
          blk->ops.size() + (blk->has_delay ? 1u : 0u) <= budget) {
        if (exec_block(*blk, r, flow, budget) != Step::kOk) break;
        continue;
      }
    }
    --budget;
    if (step_one(r, flow) != Step::kOk) break;
  }
  if (telem) {
    static telemetry::Counter& invocations =
        telemetry::registry().counter("iss.invocations");
    static telemetry::Counter& instructions =
        telemetry::registry().counter("iss.instructions");
    static telemetry::Counter& bc_hits =
        telemetry::registry().counter("iss.block_cache.hits");
    static telemetry::Counter& bc_decodes =
        telemetry::registry().counter("iss.block_cache.decodes");
    static telemetry::Counter& bc_flushes =
        telemetry::registry().counter("iss.block_cache.capacity_flushes");
    const BlockCacheStats& after = blocks_.stats();
    invocations.add();
    instructions.add(r.instructions);
    bc_hits.add(after.hits - cache_before.hits);
    bc_decodes.add(after.decodes - cache_before.decodes);
    bc_flushes.add(after.capacity_flushes - cache_before.capacity_flushes);
  }
  return r;
}

}  // namespace socpower::iss
