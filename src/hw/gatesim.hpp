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
  /// activity is what the cache/sampling estimate stands in for).
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
  void mark_consumers_dirty(NetId net);
  /// Re-evaluate every gate once in level order from current net values
  /// (reset path). Does not apply staged inputs and bills nothing.
  void settle();

  const Netlist* netlist_;
  TechParams tech_;
  ElectricalParams params_;
  std::vector<std::size_t> topo_;        // gate evaluation order
  std::vector<unsigned> gate_level_;     // topological level per gate
  // net -> consuming gate indices, CSR-flattened: the gates consuming net n
  // are consumer_gates_[consumer_offsets_[n] .. consumer_offsets_[n+1]).
  std::vector<std::uint32_t> consumer_offsets_;
  std::vector<std::uint32_t> consumer_gates_;
  std::vector<std::vector<std::size_t>> level_dirty_;  // work lists per level
  std::vector<std::uint8_t> gate_dirty_;
  unsigned num_levels_ = 0;
  std::vector<double> net_cap_;          // cached Ceff per net
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
