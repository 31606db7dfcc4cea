#include "core/explorer.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <numeric>

#include "telemetry/trace.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace socpower::core {

namespace {

/// One evaluated design point, reduced to what the outcome depends on.
struct PointEval {
  Joules total_energy = 0.0;
  double wall_seconds = 0.0;
  bool has_result = false;  // false: skipped (no run_exact for this point)
};

/// kAnalytical falls back to run_coarse where run_analytical is unset.
enum class Phase { kCoarse, kExact, kAnalytical };

/// Evaluates points[idxs[j]] for `phase`, inline or on a transient pool; a
/// point with no runner for the phase is skipped. Results are stored by
/// position and reduced afterwards in that order either way, which is what
/// makes the threaded outcome bit-identical to the serial one.
std::vector<PointEval> eval_phase(const std::vector<ExplorationPoint>& points,
                                  const std::vector<std::size_t>& idxs,
                                  Phase phase, unsigned threads) {
  std::vector<PointEval> evals(idxs.size());
  const auto eval = [&](std::size_t j) {
    SOCPOWER_TRACE_SPAN("explore.point", 0, idxs[j]);
    const ExplorationPoint& p = points[idxs[j]];
    const auto& run =
        phase == Phase::kAnalytical && p.run_analytical ? p.run_analytical
        : phase == Phase::kExact                         ? p.run_exact
                                                         : p.run_coarse;
    if (!run) return;
    const RunResults r = run();
    evals[j] = {r.total_energy, r.wall_seconds, true};
  };
  const unsigned workers = static_cast<unsigned>(
      std::min<std::size_t>(resolve_thread_count(threads), idxs.size()));
  if (workers <= 1) {
    for (std::size_t j = 0; j < idxs.size(); ++j) eval(j);
  } else {
    ThreadPool pool(workers);
    pool.parallel_for(idxs.size(), eval);
  }
  return evals;
}

/// The two-phase reduction over `candidates` (point indices, ascending):
/// coarse sweep, coarse ranking, exact verification of the best
/// `verify_top`, final sort.
ExplorationOutcome two_phase_outcome(
    const std::vector<ExplorationPoint>& points,
    const std::vector<std::size_t>& candidates, std::size_t verify_top,
    unsigned threads) {
  const std::size_t n = candidates.size();
  ExplorationOutcome out;
  out.ranked.reserve(n);

  telemetry::registry().counter("explore.points").add(n);

  // Coarse sweep: evaluate every candidate, then reduce in candidate order.
  std::vector<PointEval> coarse;
  {
    SOCPOWER_TRACE_SPAN("explore.coarse");
    coarse = eval_phase(points, candidates, Phase::kCoarse, threads);
  }
  for (std::size_t i = 0; i < n; ++i) {
    out.coarse_seconds += coarse[i].wall_seconds;
    out.ranked.push_back(
        {points[candidates[i]].label, coarse[i].total_energy, std::nullopt, 0});
  }
  // Coarse ranking.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return out.ranked[a].coarse_energy < out.ranked[b].coarse_energy;
  });
  for (std::size_t rank = 0; rank < n; ++rank)
    out.ranked[order[rank]].coarse_rank = rank;

  // Exact verification of the shortlist (reduced in shortlist order).
  const std::size_t k = std::min(verify_top, n);
  telemetry::registry().counter("explore.verified").add(k);
  std::vector<std::size_t> shortlist(k);
  for (std::size_t rank = 0; rank < k; ++rank)
    shortlist[rank] = candidates[order[rank]];
  std::vector<PointEval> exact;
  {
    SOCPOWER_TRACE_SPAN("explore.verify");
    exact = eval_phase(points, shortlist, Phase::kExact, threads);
  }
  std::vector<double> coarse_v, exact_v;
  for (std::size_t rank = 0; rank < k; ++rank) {
    if (!exact[rank].has_result) continue;
    const std::size_t idx = order[rank];
    out.exact_seconds += exact[rank].wall_seconds;
    out.ranked[idx].exact_energy = exact[rank].total_energy;
    coarse_v.push_back(out.ranked[idx].coarse_energy);
    exact_v.push_back(exact[rank].total_energy);
  }
  if (coarse_v.size() >= 2)
    out.verification_correlation =
        pearson_correlation(coarse_v.data(), exact_v.data(), coarse_v.size());

  // Final ordering: exact energies where known, else coarse.
  std::sort(out.ranked.begin(), out.ranked.end(),
            [](const ExplorationOutcome::Entry& a,
               const ExplorationOutcome::Entry& b) {
              return a.exact_energy.value_or(a.coarse_energy) <
                     b.exact_energy.value_or(b.coarse_energy);
            });
  out.winner_confirmed = out.ranked.front().coarse_rank == 0;
  return out;
}

}  // namespace

ExplorationOutcome explore(const std::vector<ExplorationPoint>& points,
                           std::size_t verify_top,
                           const ExploreOptions& options) {
  assert(!points.empty());
  std::vector<std::size_t> candidates(points.size());
  std::iota(candidates.begin(), candidates.end(), std::size_t{0});
  const std::size_t prefilter = options.analytical_prefilter;
  if (prefilter == 0 || prefilter >= points.size())
    return two_phase_outcome(points, candidates, verify_top, options.threads);

  // Three-tier funnel: analytical sweep over every point first.
  telemetry::registry().counter("explore.analytical_points")
      .add(points.size());
  std::vector<PointEval> an;
  {
    SOCPOWER_TRACE_SPAN("explore.analytical");
    an = eval_phase(points, candidates, Phase::kAnalytical, options.threads);
  }
  double an_seconds = 0.0;
  for (const PointEval& e : an) an_seconds += e.wall_seconds;

  // Keep the best `prefilter` candidates. The (energy, index) tiebreak
  // pins the survivor set — and therefore everything downstream — for any
  // thread count.
  std::sort(candidates.begin(), candidates.end(),
            [&](std::size_t a, std::size_t b) {
              if (an[a].total_energy != an[b].total_energy)
                return an[a].total_energy < an[b].total_energy;
              return a < b;
            });
  candidates.resize(prefilter);
  std::sort(candidates.begin(), candidates.end());  // original point order

  // Two-phase over the survivors: the same thunks a non-prefiltered run
  // would evaluate, which is the whole bit-identity argument.
  ExplorationOutcome out =
      two_phase_outcome(points, candidates, verify_top, options.threads);
  out.analytical_seconds = an_seconds;
  out.prefilter_kept = candidates.size();
  return out;
}

std::string ExplorationOutcome::render() const {
  TextTable t({"rank", "design point", "coarse", "exact", "coarse rank"});
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    const Entry& e = ranked[i];
    t.add_row({std::to_string(i + 1), e.label,
               format_energy(e.coarse_energy),
               e.exact_energy ? format_energy(*e.exact_energy) : "-",
               std::to_string(e.coarse_rank + 1)});
  }
  char tail[256];
  std::string head;
  if (prefilter_kept > 0) {
    std::snprintf(tail, sizeof tail,
                  "analytical prefilter: %.3fs, kept %zu candidates\n",
                  analytical_seconds, prefilter_kept);
    head = tail;
  }
  std::snprintf(tail, sizeof tail,
                "coarse pass: %.3fs; exact verification: %.3fs; winner %s; "
                "verification correlation %.4f\n",
                coarse_seconds, exact_seconds,
                winner_confirmed ? "confirmed" : "DISPLACED",
                verification_correlation);
  return t.render() + head + tail;
}

}  // namespace socpower::core
