// Gate-level power simulator (the "modified SIS power estimator" role).
//
// Per clock cycle: primary inputs are applied, the combinational network is
// evaluated in level order, every net whose value changed contributes
// 1/2 * Ceff * Vdd^2, and the flip-flops latch. Energy is reported cycle by
// cycle, which is what the co-estimation master consumes ("a cycle-by-cycle
// report of the energy dissipated", Section 3). Because energy depends on
// the applied data, hardware per-path energies have real variance — the
// source of the histograms in Figure 4(b).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "hw/netlist.hpp"
#include "util/units.hpp"

namespace socpower::hw {

struct CycleResult {
  std::uint64_t toggles = 0;
  Joules energy = 0.0;
};

/// The immutable half of the gate-level simulator: everything step() reads
/// and never writes, derived once from a netlist, its technology and its
/// electrical parameters. Building one levelizes the netlist and refuses, in
/// every build type, a combinational cycle or more than 2^24 nets. Any
/// number of GateSims, on any threads, may step over one program; the
/// netlist must outlive it.
class GateProgram {
 public:
  GateProgram(const Netlist* netlist, TechParams tech,
              ElectricalParams params);

  [[nodiscard]] const Netlist& netlist() const { return *netlist_; }

 private:
  friend class GateSim;

  /// A gate as the kernel sees it: three input nets (absent inputs read
  /// Netlist::const0()), `out << 8 | truth table`, where bit
  /// (a | b << 1 | c << 2) of the 8-bit table is the output for inputs a, b,
  /// c, and the output net's consumer range in consumers_.
  struct FlatGate {
    std::uint32_t in[3];
    std::uint32_t out_tt;
    std::uint32_t consumers_begin;
    std::uint32_t consumers_end;
  };
  /// One consumer of a net, with the level that owns its work slots. A DFF
  /// reading the net on D is a consumer too: gate gates_.size() + its index,
  /// at kLatchLevel (see GateSim::gate_dirty_).
  struct Consumer {
    std::uint32_t gate;
    std::uint32_t level;
  };
  static constexpr std::uint32_t kNoLevel = 0xffffffffu;
  static constexpr std::uint32_t kLatchLevel = 0;

  const Netlist* netlist_;
  std::vector<FlatGate> gates_;  // in level order
  // net -> consumers, CSR-flattened: the consumers of net n are
  // consumers_[consumer_offsets_[n] .. consumer_offsets_[n+1]).
  std::vector<std::uint32_t> consumer_offsets_;
  std::vector<Consumer> consumers_;
  // Level l owns the work slots [level_begin_[l], level_begin_[l+1]): one
  // per gate of that level (per DFF at kLatchLevel) plus one spare.
  std::vector<std::uint32_t> level_begin_;
  std::vector<double> net_energy_;  // switch energy per net
  Joules clock_energy_per_cycle_ = 0.0;
};

/// One simulator: the per-run state (net values, dirty marks, work lists,
/// toggles, counters) over a GateProgram.
class GateSim {
 public:
  /// A simulator over a program of its own, built from `netlist`.
  GateSim(const Netlist* netlist, TechParams tech = TechParams::generic_250nm(),
          ElectricalParams params = {});
  /// A simulator over a shared program, which it keeps alive.
  explicit GateSim(std::shared_ptr<const GateProgram> program);

  /// Set a primary input for the upcoming cycle (index into primary_inputs()).
  /// Out-of-range indices are checked in every build type: the write is
  /// dropped and counted (dropped_input_writes()) instead of corrupting
  /// adjacent state under NDEBUG.
  void set_input(std::size_t input_index, bool value);
  /// Convenience: drive a whole input word, LSB first. Takes a uint64_t so
  /// ports wider than 32 bits stage without silent truncation.
  void set_input_word(std::size_t first_input_index, std::uint64_t value,
                      unsigned width);
  /// Count of set_input()/set_input_word() bit writes rejected for an
  /// out-of-range input index.
  [[nodiscard]] std::uint64_t dropped_input_writes() const {
    return dropped_input_writes_;
  }

  /// Evaluate one clock cycle; returns toggles and switched energy
  /// (combinational + register + clock tree).
  CycleResult step();

  [[nodiscard]] bool net_value(NetId n) const;
  /// Every net's current value (0 or 1), indexed by NetId.
  [[nodiscard]] std::span<const std::uint8_t> values() const { return value_; }
  /// Read an output word (as marked by mark_output order), LSB first.
  /// Out-of-range output indices are clamped in every build type: the
  /// missing bits read as 0 rather than indexing past the output table.
  /// Returns a uint64_t so ports up to 64 bits read back without truncation.
  [[nodiscard]] std::uint64_t read_word(std::size_t first_output_index,
                                        unsigned width) const;

  /// Reset registers to their init values and all nets to 0.
  void reset();

  /// Overwrite a net's value WITHOUT billing switching energy. Used by the
  /// co-estimation master to resynchronize register state after acceleration
  /// techniques skipped gate-level evaluation of some reactions (the skipped
  /// activity is what the cache/sampling estimate stands in for). The two
  /// constant nets must not be forced: absent gate inputs read const0().
  void force_net(NetId n, bool value);

  [[nodiscard]] const Netlist& netlist() const { return program_->netlist(); }
  [[nodiscard]] const GateProgram& program() const { return *program_; }
  [[nodiscard]] std::uint64_t cycles_simulated() const { return cycles_; }
  [[nodiscard]] Joules total_energy() const { return total_energy_; }

  [[nodiscard]] std::uint64_t gates_evaluated() const {
    return gates_evaluated_;
  }

  // -- reaction-cache protocol (hw/reaction_cache.hpp) -----------------------
  // The cache memoizes full reactions; these accessors expose exactly what it
  // needs to key a lookup (the staged input vector), to detect state breaks
  // (resets, forced writes), and to capture/replay a step's complete effect.

  /// Pending primary-input values the next step() will apply (key material).
  [[nodiscard]] const std::vector<std::uint8_t>& staged_inputs() const {
    return input_next_;
  }
  /// Incremented by every reset(); the cache re-anchors its state tracking
  /// on a change.
  [[nodiscard]] std::uint64_t reset_count() const { return resets_; }
  /// True once if any force_net() since the last call (or reset) actually
  /// changed a net value; the cache de-anchors on it because forced states
  /// cannot be content-addressed soundly (the forced writes leave pending
  /// dirty marks that net values alone do not imply).
  [[nodiscard]] bool consume_forced() {
    const bool f = forced_;
    forced_ = false;
    return f;
  }
  /// Nets toggled by the most recent step(), in commit order. The suffix
  /// starting at last_latch_begin() holds the DFF Q toggles of the clock
  /// edge (the only toggles whose dirty marks outlive the step). Valid until
  /// the next step().
  [[nodiscard]] std::span<const NetId> last_toggles() const {
    return {toggled_.get(), toggled_count_};
  }
  [[nodiscard]] std::size_t last_latch_begin() const { return latch_begin_; }
  /// Replay a memoized reaction: restore the exact post-step() state (net
  /// values, pending dirty marks, counters) and bill the stored energy,
  /// without evaluating any gate. `toggles`/`latch_begin` must be the
  /// last_toggles()/last_latch_begin() capture and `energy` the CycleResult
  /// energy of the step() being replayed, taken from an identical simulator
  /// state — then the outcome is bit-identical to re-running that step().
  CycleResult apply_cached_reaction(std::span<const NetId> toggles,
                                    std::size_t latch_begin, Joules energy);

 private:
  using FlatGate = GateProgram::FlatGate;
  using Consumer = GateProgram::Consumer;
  static constexpr std::uint32_t kNoLevel = GateProgram::kNoLevel;
  static constexpr std::uint32_t kLatchLevel = GateProgram::kLatchLevel;

  void mark_consumers_dirty(std::uint32_t net);
  /// Lay down the dirty marks of the last clock edge's Q toggles (queued in
  /// latch_marks_) before any other mark.
  void mark_latch_consumers();
  /// Drop every pending dirty mark, laid down or queued, without evaluating
  /// (cache replay, reset).
  void drain_dirty();
  /// Re-evaluate every gate once in level order from current net values
  /// (reset path). Does not apply staged inputs and bills nothing.
  void settle();
  /// Make every DFF a latch candidate for the next clock edge: the state
  /// changed without commits (reset, force_net, cache replay), so a D may
  /// differ from its Q without having marked it.
  void latch_all_next_edge();

  std::shared_ptr<const GateProgram> program_;
  // Work lists: level l owns work_[level_begin_[l] .. level_begin_[l+1])
  // (the program's ranges), filled from the front up to level_fill_[l].
  // Marking stores unconditionally and advances the fill only for a gate
  // not yet dirty; the spare slot absorbs the store when every gate of the
  // level is already queued.
  std::vector<std::uint32_t> work_;
  std::vector<std::uint32_t> level_fill_;
  // One dirty flag per gate, then one per DFF (padded to a multiple of 8).
  // A DFF's flag is set by every commit to its D net, through the DFF's
  // consumer entry: it marks the latch candidates of the next clock edge.
  // A DFF whose flag is clear has Q == D, so the edge compares only the
  // flagged ones. Their work slots at kLatchLevel, below every gate level,
  // only absorb the marking stores; the sweep starts above that level.
  std::vector<std::uint8_t> gate_dirty_;
  std::uint32_t dirty_lo_ = kNoLevel;  // lowest level holding a dirty mark
  std::uint32_t dirty_hi_ = 0;         // highest (valid when dirty_lo_ is)
  // Q nets the last clock edge toggled, in commit order, whose consumers are
  // not marked yet: the next step(), force_net() or replay deals with them.
  std::vector<std::uint32_t> latch_marks_;
  std::vector<std::uint8_t> value_;      // current net values
  std::vector<std::uint8_t> input_next_; // pending PI values
  // Nets toggled by the last step, in order. A net commits at most once per
  // step, so net_count() entries always suffice; allocated once, never
  // zero-filled.
  std::unique_ptr<NetId[]> toggled_;
  std::size_t toggled_count_ = 0;
  std::size_t latch_begin_ = 0;          // toggled_ index where Q toggles start
  std::uint64_t cycles_ = 0;
  Joules total_energy_ = 0.0;
  std::uint64_t gates_evaluated_ = 0;
  std::uint64_t dropped_input_writes_ = 0;
  std::uint64_t resets_ = 0;
  bool forced_ = false;
};

}  // namespace socpower::hw
