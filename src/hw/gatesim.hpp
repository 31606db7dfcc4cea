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

class GateSim {
 public:
  GateSim(const Netlist* netlist, TechParams tech = TechParams::generic_250nm(),
          ElectricalParams params = {});

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

  [[nodiscard]] const Netlist& netlist() const { return *netlist_; }
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
  /// edge (the only toggles whose dirty marks outlive the step).
  [[nodiscard]] const std::vector<NetId>& last_toggles() const {
    return toggled_;
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
  // The evaluation kernel's data is precomputed from the netlist at
  // construction so step() runs without a type switch or absent-input test.
  /// A gate as the kernel sees it: three input nets (absent inputs read
  /// Netlist::const0()) and `out << 8 | truth table`, where bit
  /// (a | b << 1 | c << 2) of the 8-bit table is the output for inputs a, b,
  /// c.
  struct FlatGate {
    std::uint32_t in[3];
    std::uint32_t out_tt;
  };
  /// One consumer of a net, with the level that owns its work slots.
  struct Consumer {
    std::uint32_t gate;
    std::uint32_t level;
  };
  static constexpr std::uint32_t kNoLevel = 0xffffffffu;

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

  const Netlist* netlist_;
  TechParams tech_;
  ElectricalParams params_;
  std::vector<FlatGate> gates_;  // in level order
  // net -> consumers, CSR-flattened: the consumers of net n are
  // consumers_[consumer_offsets_[n] .. consumer_offsets_[n+1]).
  std::vector<std::uint32_t> consumer_offsets_;
  std::vector<Consumer> consumers_;
  // Work lists: level l owns work_[level_begin_[l] .. level_begin_[l+1]),
  // one slot per gate of that level plus one spare, filled from the front up
  // to level_fill_[l]. Marking stores unconditionally and advances the fill
  // only for a gate not yet dirty; the spare slot absorbs the store when
  // every gate of the level is already queued.
  std::vector<std::uint32_t> work_;
  std::vector<std::uint32_t> level_begin_;
  std::vector<std::uint32_t> level_fill_;
  std::vector<std::uint8_t> gate_dirty_;
  std::uint32_t dirty_lo_ = kNoLevel;  // lowest level holding a dirty mark
  std::uint32_t dirty_hi_ = 0;         // highest (valid when dirty_lo_ is)
  // Q nets the last clock edge toggled, in commit order, whose consumers are
  // not marked yet: the next step(), force_net() or replay deals with them.
  std::vector<std::uint32_t> latch_marks_;
  std::vector<double> net_energy_;       // cached switch energy per net
  std::vector<std::uint8_t> value_;      // current net values
  std::vector<std::uint8_t> input_next_; // pending PI values
  std::vector<NetId> toggled_;           // nets toggled this step, in order
  std::size_t latch_begin_ = 0;          // toggled_ index where Q toggles start
  std::vector<std::uint8_t> latch_next_; // DFF D values at the clock edge
  Joules clock_energy_per_cycle_ = 0.0;
  std::uint64_t cycles_ = 0;
  Joules total_energy_ = 0.0;
  std::uint64_t gates_evaluated_ = 0;
  std::uint64_t dropped_input_writes_ = 0;
  std::uint64_t resets_ = 0;
  bool forced_ = false;
};

}  // namespace socpower::hw
