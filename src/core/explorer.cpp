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

/// Runs fn(0..n-1) either inline or on a transient pool. Results must be
/// stored by index by the caller; the reduction happens afterwards in index
/// order either way, which is what makes the threaded outcome bit-identical
/// to the serial one.
void for_each_index(std::size_t n, unsigned threads,
                    const std::function<void(std::size_t)>& fn) {
  const unsigned workers =
      static_cast<unsigned>(std::min<std::size_t>(resolve_thread_count(threads), n));
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  ThreadPool pool(workers);
  pool.parallel_for(n, fn);
}

}  // namespace

namespace detail {

ExplorationOutcome two_phase_outcome(
    const std::vector<ExplorationPoint>& points, std::size_t verify_top,
    const std::function<std::vector<PointEval>(
        const std::vector<std::size_t>&, int)>& eval_phase) {
  assert(!points.empty());
  ExplorationOutcome out;
  out.ranked.reserve(points.size());

  telemetry::registry().counter("explore.points").add(points.size());

  // Coarse sweep: evaluate every point, then reduce by point index.
  std::vector<std::size_t> all(points.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  std::vector<PointEval> coarse;
  {
    SOCPOWER_TRACE_SPAN("explore.coarse");
    coarse = eval_phase(all, 0);
  }
  assert(coarse.size() == points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    out.coarse_seconds += coarse[i].wall_seconds;
    out.ranked.push_back(
        {points[i].label, coarse[i].total_energy, std::nullopt, 0});
  }
  // Coarse ranking.
  std::vector<std::size_t> order(points.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return out.ranked[a].coarse_energy < out.ranked[b].coarse_energy;
  });
  for (std::size_t rank = 0; rank < order.size(); ++rank)
    out.ranked[order[rank]].coarse_rank = rank;

  // Exact verification of the shortlist (reduced in shortlist order).
  const std::size_t k = std::min(verify_top, points.size());
  telemetry::registry().counter("explore.verified").add(k);
  std::vector<std::size_t> shortlist(order.begin(),
                                     order.begin() + static_cast<long>(k));
  std::vector<PointEval> exact;
  {
    SOCPOWER_TRACE_SPAN("explore.verify");
    exact = eval_phase(shortlist, 1);
  }
  assert(exact.size() == k);
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

ExplorationOutcome funnel_outcome(
    const std::vector<ExplorationPoint>& points, std::size_t verify_top,
    std::size_t prefilter,
    const std::function<std::vector<PointEval>(
        const std::vector<std::size_t>&, int)>& eval_phase) {
  if (prefilter == 0 || prefilter >= points.size())
    return two_phase_outcome(points, verify_top, eval_phase);

  telemetry::registry().counter("explore.analytical_points")
      .add(points.size());
  std::vector<std::size_t> all(points.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  std::vector<PointEval> an;
  {
    SOCPOWER_TRACE_SPAN("explore.analytical");
    an = eval_phase(all, 2);
  }
  assert(an.size() == points.size());
  double an_seconds = 0.0;
  for (const PointEval& e : an) an_seconds += e.wall_seconds;

  // Keep the best `prefilter` candidates. The (energy, index) tiebreak
  // pins the survivor set — and therefore everything downstream — for any
  // evaluation strategy.
  std::vector<std::size_t> order(points.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (an[a].total_energy != an[b].total_energy)
      return an[a].total_energy < an[b].total_energy;
    return a < b;
  });
  std::vector<std::size_t> kept(order.begin(),
                                order.begin() + static_cast<long>(prefilter));
  std::sort(kept.begin(), kept.end());  // survivors in original point order

  // Two-phase over the survivors, with the phase-0/1 index stream remapped
  // to the original points — the same thunks a non-prefiltered run would
  // evaluate, which is the whole bit-identity argument.
  std::vector<ExplorationPoint> kept_points;
  kept_points.reserve(kept.size());
  for (const std::size_t i : kept) kept_points.push_back(points[i]);
  ExplorationOutcome out = two_phase_outcome(
      kept_points, verify_top,
      [&](const std::vector<std::size_t>& idxs, int phase) {
        std::vector<std::size_t> orig(idxs.size());
        for (std::size_t j = 0; j < idxs.size(); ++j) orig[j] = kept[idxs[j]];
        return eval_phase(orig, phase);
      });
  out.analytical_seconds = an_seconds;
  out.prefilter_kept = kept.size();
  return out;
}

PointEval eval_point(const std::vector<ExplorationPoint>& points,
                     std::size_t idx, int phase) {
  SOCPOWER_TRACE_SPAN("explore.point", 0, idx);
  const ExplorationPoint& p = points[idx];
  const auto& run = phase == 2 && p.run_analytical ? p.run_analytical
                    : phase == 1                   ? p.run_exact
                                                   : p.run_coarse;
  if (!run) return {};
  const RunResults r = run();
  return {r.total_energy, r.wall_seconds, true};
}

}  // namespace detail

ExplorationOutcome explore(const std::vector<ExplorationPoint>& points,
                           std::size_t verify_top) {
  return explore(points, verify_top, ExploreOptions{});
}

ExplorationOutcome explore(const std::vector<ExplorationPoint>& points,
                           std::size_t verify_top,
                           const ExploreOptions& options) {
  return detail::funnel_outcome(
      points, verify_top, options.analytical_prefilter,
      [&](const std::vector<std::size_t>& idxs, int phase) {
        std::vector<detail::PointEval> evals(idxs.size());
        for_each_index(idxs.size(), options.threads, [&](std::size_t j) {
          evals[j] = detail::eval_point(points, idxs[j], phase);
        });
        return evals;
      });
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
