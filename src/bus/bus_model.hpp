// Behavioral, parameterizable model of the SOC integration architecture
// (shared bus + arbiter), after the paper's Section 3 and reference [21].
//
// The user supplies budgeted physical parameters (address/data widths and
// per-line effective capacitance from a system-level floorplan); switching
// activity is computed during co-simulation from the actual transaction
// trace, and bus power follows
//     P_bus = 1/2 * Vdd^2 * f * sum_lines Ceff(line_i) * A(line_i).
// The arbiter grants the bus per DMA block: a transfer of N bytes with DMA
// block size D needs ceil(N/D) grants, each paying an arbitration handshake
// (cycles + control-line toggles). At every grant boundary fixed
// priorities order the pending requests (BusScheduler below). All
// parameters can be changed between runs without recompiling the system
// description — the knobs swept in the paper's Figure 7 exploration.
#pragma once

#include <cstdint>
#include <vector>

#include "bus/interconnect.hpp"
#include "util/units.hpp"

namespace socpower::bus {

struct BusParams {
  unsigned addr_bits = 8;
  /// Data-lane width. 1..8 bits move one (masked) byte per beat; 16/24/32
  /// bits move multiple bytes per beat — fewer beats and less address-line
  /// switching at the cost of more data lines.
  unsigned data_bits = 8;

  [[nodiscard]] unsigned bytes_per_beat() const {
    return data_bits <= 8 ? 1u : data_bits / 8u;
  }
  /// Effective capacitance per bus line (wire + drivers/repeaters). The
  /// paper's exploration uses Cbit = 10 nF.
  double line_cap_f = 10e-9;
  unsigned handshake_cycles = 2;   // request/grant arbitration per DMA block
  double handshake_toggles = 4.0;  // control-line toggles per grant
  unsigned cycles_per_beat = 1;
  unsigned dma_block_size = 16;    // max bytes moved per grant
  ElectricalParams electrical;
};

// BusRequest / BusResult / BusTotals — the transfer vocabulary shared by
// every interconnect implementation — live in bus/interconnect.hpp.

/// Grant-level bus scheduler: the arbiter re-arbitrates at every DMA-block
/// boundary among all masters with pending traffic, so a high-priority
/// master preempts (at block granularity) a long transfer of a lower-
/// priority one — the mechanism that makes the priority assignment a real
/// knob in the paper's Figure 7 exploration. Used by the co-estimation
/// master, which advances it in simulated-time order.
class BusScheduler : public Interconnect {
 public:
  explicit BusScheduler(BusParams params = {});

  /// Enqueue a transfer at cycle `now` (must be >= the last advance time).
  JobId submit(std::uint64_t now, BusRequest request) override;

  /// Next cycle at which scheduler state changes (a grant completes or a
  /// pending job could start); 0 when fully idle with nothing pending.
  [[nodiscard]] bool has_work() const override;
  [[nodiscard]] std::uint64_t next_boundary() const override;

  /// Advance simulated time to `t`, processing every grant boundary up to
  /// and including it; returns the transfers that completed.
  std::vector<Completion> advance(std::uint64_t t) override;

  [[nodiscard]] const BusTotals& totals() const override { return totals_; }
  [[nodiscard]] const BusParams& params() const { return params_; }
  void set_keep_grant_times(bool keep) { keep_grant_times_ = keep; }
  [[nodiscard]] const std::vector<std::uint64_t>& grant_times() const {
    return grant_times_;
  }
  void reset() override;

 private:
  struct Job {
    JobId id = 0;
    BusRequest request;
    std::size_t next_byte = 0;
    std::uint64_t submit_time = 0;
    std::uint64_t first_start = 0;
    bool started = false;
    unsigned grants = 0;
    Joules energy = 0.0;
  };

  [[nodiscard]] Joules toggle_energy(std::uint64_t toggles) const;
  /// Picks the pending job to grant next (highest priority; ties by master
  /// id then submission order). Returns pending_.size() when none eligible.
  [[nodiscard]] std::size_t pick(std::uint64_t now) const;
  void start_grant(std::size_t job_index, std::uint64_t start);

  BusParams params_;
  std::vector<Job> pending_;
  bool busy_ = false;
  std::size_t active_index_ = 0;   // into pending_ while busy_
  std::uint64_t grant_end_ = 0;
  std::uint64_t last_advance_ = 0;
  std::uint32_t prev_addr_ = 0;
  std::uint32_t prev_data_ = 0;  // last beat word on the data lanes
  JobId next_id_ = 1;
  BusTotals totals_;
  bool keep_grant_times_ = false;
  std::vector<std::uint64_t> grant_times_;
};

}  // namespace socpower::bus
