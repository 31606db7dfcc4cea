// The benchmark's three closed-loop workloads. Each owns its inputs (made
// from the seed only), defines one operation, checks every op's result, and
// fills an OpRecord with what the metrics need.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/coestimator_config.hpp"
#include "ledger.hpp"

namespace e2ebench {

/// Thread counts the benchmark pins, so results do not depend on the
/// scheduler: one HW flush thread, one explore thread, one serve worker
/// (and one client per workload).
inline constexpr unsigned kHwFlushThreads = 1;
inline constexpr unsigned kExploreThreads = 1;
inline constexpr unsigned kServeThreads = 1;

/// RunResults fields summed over every run() an op made.
struct RunTotals {
  double wall_s = 0.0;  ///< RunResults::wall_seconds, the master's own clock
  std::uint64_t reactions = 0;
  std::uint64_t sw_reactions = 0;
  std::uint64_t cache_hits_served = 0;
  std::uint64_t iss_instructions = 0;
  std::uint64_t gate_sim_cycles = 0;
  std::uint64_t icache_accesses = 0;
  std::uint64_t icache_misses = 0;
  std::uint64_t bus_transfers = 0;
  std::uint64_t bus_wait_cycles = 0;
  std::uint64_t l1_accesses = 0;
  std::uint64_t l1_hits = 0;
  std::uint64_t invalidations = 0;

  void add(const socpower::core::RunResults& r);
};

/// Telemetry counter values the traced run reads its hit ratios from.
struct CounterTotals {
  std::uint64_t block_hits = 0;
  std::uint64_t block_decodes = 0;
  std::uint64_t rcache_hits = 0;
  std::uint64_t rcache_misses = 0;

  [[nodiscard]] CounterTotals operator-(const CounterTotals& base) const;
};
[[nodiscard]] CounterTotals counter_totals();

/// Everything measured for one op.
struct OpRecord {
  double wall_s = 0.0;  ///< the op's wall time, measured by the harness
  bool ok = true;       ///< the op's correctness checks passed
  /// Bit-exact rendering of the op's result (hexfloat energies, labels):
  /// plain and traced ops on the same inputs must produce the same string.
  std::string fingerprint;
  RunTotals runs;

  /// Estimator construction + prepare() inside the op (mesh_sweep only).
  double setup_in_op_s = 0.0;
  /// serve_warm: client round trip and the server's RequestStats::wall_ms.
  double rpc_s = 0.0;
  double server_s = 0.0;
  std::uint64_t warm_hits = 0;
  std::uint64_t warm_fills = 0;
  /// mesh_sweep: the explorer's own phase times and counts.
  double explore_analytical_s = 0.0;
  double explore_coarse_s = 0.0;
  double explore_exact_s = 0.0;
  std::uint64_t prefilter_kept = 0;
  std::uint64_t points_evaluated = 0;
  bool winner_match = true;

  /// Traced ops only: ledger and telemetry deltas over the op.
  LedgerSnapshot ledger;
  CounterTotals counters;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the system and estimator(s) and runs prepare(). The caller
  /// times it and calls it many times, spread over the run; state the ops
  /// need comes from the first call.
  virtual void setup() = 0;
  /// Releases what a set-up after the first one built (untimed).
  virtual void drop_extra_setup() {}
  /// Untimed reference work done once per seed after set-up.
  virtual void reference() = 0;
  /// One operation on input `index`. `traced` selects the bench.* timing
  /// wrappers; a plain and a traced op with one index see the same inputs.
  [[nodiscard]] virtual OpRecord op(std::uint64_t index, bool traced) = 0;
  /// Ends the workload: stops servers and joins their threads.
  virtual void teardown() {}

  /// Mean |E_accel - E_exact| / E_exact in percent over the workload's
  /// accelerated estimates (deterministic per seed).
  [[nodiscard]] virtual double energy_err_pct() const = 0;
  /// One line naming the workload's inputs.
  [[nodiscard]] virtual std::string describe() const = 0;
};

/// Creates the named workload ("nic_stream", "mesh_sweep", "serve_warm");
/// nullptr for an unknown name. `trace_mode` prepares the wrapped variant
/// too; `out_dir` holds the serve workload's socket.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed,
                                                      bool trace_mode,
                                                      const std::string& out_dir);

}  // namespace e2ebench
