// Two-phase design-space exploration.
//
// The paper's argument for macro-modeling is its *relative* accuracy: it
// preserves the ranking of design variants (Figure 6), so coarse exploration
// can run with the cheap estimator and only the shortlisted winners need the
// exact one. This helper packages that workflow: evaluate every point with
// the accelerated estimator, rank, re-evaluate the top-k exactly, and report
// both the final ranking and the fidelity of the coarse pass.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/coestimator.hpp"

namespace socpower::core {

struct ExplorationPoint {
  std::string label;
  /// Cheap estimate (typically Acceleration::kMacroModel or kCaching).
  std::function<RunResults()> run_coarse;
  /// Exact estimate (typically Acceleration::kNone). May be empty when the
  /// caller only wants the coarse ranking.
  std::function<RunResults()> run_exact;
  /// Cheapest estimate (typically the "hw.analytical" backend with an
  /// imported calibrated model) for the three-tier funnel's prefilter
  /// phase. May be empty — the prefilter then falls back to run_coarse,
  /// which keeps the funnel correct but not faster.
  std::function<RunResults()> run_analytical;
};

struct ExplorationOutcome {
  struct Entry {
    std::string label;
    Joules coarse_energy = 0.0;
    std::optional<Joules> exact_energy;  // set for verified entries
    std::size_t coarse_rank = 0;
  };
  /// All points, sorted by final energy (exact where available, else coarse).
  std::vector<Entry> ranked;
  /// Did the exact verification keep the coarse winner on top?
  bool winner_confirmed = true;
  /// Pearson correlation between coarse and exact energies over the
  /// verified subset (1.0 when fewer than two points were verified).
  double verification_correlation = 1.0;
  double coarse_seconds = 0.0;
  double exact_seconds = 0.0;
  /// Wall time of the analytical prefilter sweep (0 when it did not run).
  double analytical_seconds = 0.0;
  /// Candidates the prefilter kept for the coarse/verify phases (0 = the
  /// funnel did not run; ranked then covers every point).
  std::size_t prefilter_kept = 0;

  [[nodiscard]] const Entry& best() const { return ranked.front(); }
  [[nodiscard]] std::string render() const;
};

struct ExploreOptions {
  /// Worker threads for both phases (coarse sweep and exact verification).
  /// 1 = serial, 0 = one per hardware thread. Every ExplorationPoint thunk
  /// constructs its own CoEstimator, so points are independent; results are
  /// stored by point index and reduced in index order, making the outcome
  /// bit-identical to the serial path for any thread count. Point thunks
  /// that use random workloads must follow the Rng seeding contract
  /// (util/rng.hpp): one Rng per point, seeded from stable identifiers.
  unsigned threads = 1;
  /// Three-tier funnel: 0 = off (classic two-phase exploration over every
  /// point). K > 0 first evaluates EVERY point with run_analytical (falling
  /// back to run_coarse where unset), keeps the best K candidates, and runs
  /// the usual coarse/verify phases on those survivors only — through the
  /// identical two-phase reduction, so whenever the kept K contains the
  /// true coarse top-verify_top, the winner and the verified ranking are
  /// bit-identical to the non-prefiltered run (the survivors' coarse/exact
  /// energies are the same thunk evaluations either way). Ties in the
  /// analytical ranking break by point index. K >= points.size() degrades
  /// to the classic two-phase run.
  std::size_t analytical_prefilter = 0;
};

/// Runs the two-phase exploration. `verify_top` exact evaluations are spent
/// on the best coarse candidates (0 = coarse-only).
[[nodiscard]] ExplorationOutcome explore(
    const std::vector<ExplorationPoint>& points, std::size_t verify_top);
/// Same, with explicit options (threaded evaluation of both phases).
[[nodiscard]] ExplorationOutcome explore(
    const std::vector<ExplorationPoint>& points, std::size_t verify_top,
    const ExploreOptions& options);

struct ShardedExploreOptions {
  /// Worker processes. Each forked worker evaluates the design points
  /// assigned to its shard (point index modulo worker count, for both the
  /// coarse sweep and the exact shortlist) in its own address space; the
  /// master reduces the results in point-index order through the same
  /// reduction as explore(), so the outcome — winner, ranking, every energy
  /// bit — is identical to the serial path. A worker that dies or times out
  /// is dropped and its unanswered points are evaluated in the master
  /// (telemetry "dist.fallbacks"), which preserves results too: point
  /// thunks are deterministic wherever they run. 1 = serial explore(),
  /// 0 = one per hardware thread; platforms without fork degrade to serial.
  unsigned workers = 0;
  /// Fault injection for tests: the worker with this shard index exits
  /// abruptly on its first request. -1 = off.
  int debug_crash_worker = -1;
  /// Three-tier funnel, exactly as ExploreOptions::analytical_prefilter:
  /// the prefilter sweep shards over the same worker fleet as the coarse
  /// and verify phases (one phase-2 request per point), and the survivors'
  /// phases reduce through the identical code path.
  std::size_t analytical_prefilter = 0;
};

/// Two-phase exploration sharded over forked worker processes (implemented
/// in src/dist/; declared here because it is the process-level analogue of
/// ExploreOptions::threads).
[[nodiscard]] ExplorationOutcome explore_sharded(
    const std::vector<ExplorationPoint>& points, std::size_t verify_top,
    const ShardedExploreOptions& options);

namespace detail {

/// One evaluated design point, reduced to what the outcome depends on.
struct PointEval {
  Joules total_energy = 0.0;
  double wall_seconds = 0.0;
  bool has_result = false;  // false: skipped (no run_exact for this point)
};

/// The shared two-phase reduction behind explore() and explore_sharded().
/// `eval_phase(indices, phase)` evaluates the given point indices — phase 0
/// coarse, phase 1 exact — and returns one PointEval per index, in order.
/// Everything else (ranking, shortlist selection, correlation, final sort)
/// happens here, identically for every evaluation strategy; that shared
/// code path is what makes the sharded outcome bit-identical to the serial
/// one.
[[nodiscard]] ExplorationOutcome two_phase_outcome(
    const std::vector<ExplorationPoint>& points, std::size_t verify_top,
    const std::function<std::vector<PointEval>(
        const std::vector<std::size_t>&, int)>& eval_phase);

/// Evaluate point `idx` in-process for `phase`: 2 analytical (falling back
/// to coarse), 0 coarse, 1 exact. A point with no runner for the phase is
/// skipped. explore(), the sharded workers and the sharded master's
/// fallback all evaluate through here.
[[nodiscard]] PointEval eval_point(const std::vector<ExplorationPoint>& points,
                                   std::size_t idx, int phase);

/// The three-tier funnel behind explore() and explore_sharded() when
/// analytical_prefilter > 0: phase 2 (analytical) over every point, keep
/// the `prefilter` best (ties break by point index), then run
/// two_phase_outcome over the surviving points with the phase-0/1 indices
/// remapped to the originals. Degrades to two_phase_outcome when
/// `prefilter` is 0 or covers all points. Sharing this reduction between
/// both entry points is what makes the sharded funnel bit-identical to the
/// serial one.
[[nodiscard]] ExplorationOutcome funnel_outcome(
    const std::vector<ExplorationPoint>& points, std::size_t verify_top,
    std::size_t prefilter,
    const std::function<std::vector<PointEval>(
        const std::vector<std::size_t>&, int)>& eval_phase);

}  // namespace detail

}  // namespace socpower::core
