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
    const std::vector<ExplorationPoint>& points, std::size_t verify_top,
    const ExploreOptions& options = {});

}  // namespace socpower::core
