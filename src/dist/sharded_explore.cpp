// explore_sharded(): the two-phase design-space exploration fanned out over
// forked worker processes. Each worker owns shard w of the point list
// (indices with idx % W == w) for both phases; the master pipelines
// kEvalPoint requests to every live worker, collects the replies per worker
// in request order, and feeds the per-index results into the same
// detail::two_phase_outcome reduction as the serial explore() — which is the
// whole bit-identity argument: only the evaluation transport differs.
//
// A worker that dies or misses its reply timeout is dropped; its unanswered
// points are evaluated in the master process (point thunks are deterministic
// wherever they run, so results are unchanged — "dist.fallbacks" telemetry
// records the degradation).

#include "core/explorer.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "dist/channel.hpp"
#include "dist/wire.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/trace.hpp"
#include "util/thread_pool.hpp"

namespace socpower::core {

namespace {

/// Per-reply timeout before a worker is declared dead. Generous: one design
/// point can legitimately co-simulate for minutes.
constexpr int kReplyTimeoutMs = 600'000;

/// The kEvalPoint reply.
template <class Io, dist::MaybeConst<detail::PointEval> M>
void fields(Io& io, M& ev) {
  io.boolean(ev.has_result);
  io.f64(ev.total_energy);
  io.f64(ev.wall_seconds);
}

int serve_shard(dist::Channel& ch,
                const std::vector<ExplorationPoint>& points, bool crash) {
  for (;;) {
    dist::Frame f;
    const dist::Channel::RecvStatus st = ch.recv_frame(&f, /*timeout_ms=*/-1);
    if (st != dist::Channel::RecvStatus::kOk)
      return st == dist::Channel::RecvStatus::kClosed ? 0 : 1;
    if (f.type == dist::MsgType::kShutdown) return 0;
    if (f.type != dist::MsgType::kEvalPoint) return 1;
    if (crash) std::_Exit(3);  // fault injection: die on the first request
    dist::WireReader r(f.payload);
    std::uint8_t phase = 0;
    std::uint32_t idx = 0;
    r.u8(phase);
    r.u32(idx);
    if (!r.ok() || !r.at_end() || idx >= points.size()) return 1;
    const detail::PointEval ev = detail::eval_point(points, idx, phase);
    dist::WireWriter w;
    fields(w, ev);
    if (!ch.send_frame(dist::MsgType::kReply, w.take())) return 1;
  }
}

}  // namespace

ExplorationOutcome explore_sharded(const std::vector<ExplorationPoint>& points,
                                   std::size_t verify_top,
                                   const ShardedExploreOptions& options) {
  ExploreOptions serial;
  serial.threads = 1;
  serial.analytical_prefilter = options.analytical_prefilter;
  const std::size_t want = resolve_thread_count(options.workers);
  const std::size_t W = std::min(want, points.size());
  if (!dist::supported() || W <= 1) return explore(points, verify_top, serial);
  auto& reg = telemetry::registry();
  telemetry::Counter& fallback_points =
      reg.counter("explore.sharded.fallback_points");
  telemetry::Counter& dist_fallbacks = reg.counter("dist.fallbacks");
  reg.counter("explore.sharded.workers").add(W);

  // A worker whose channel is closed has been dropped.
  std::vector<dist::ChildProcess> procs(W);
  for (std::size_t w = 0; w < W; ++w) {
    const bool crash = options.debug_crash_worker == static_cast<int>(w);
    (void)dist::fork_child(&procs[w], [&](dist::Channel& ch) {
      return serve_shard(ch, points, crash);
    });
  }

  auto drop = [&](dist::ChildProcess& p) {
    p.ch.close();
    dist_fallbacks.add();
  };

  const auto eval_phase = [&](const std::vector<std::size_t>& idxs,
                              int phase) {
    std::vector<detail::PointEval> evals(idxs.size());
    std::vector<char> answered(idxs.size(), 0);
    // Pipeline: queue every request up front so all shards work at once.
    std::vector<std::vector<std::size_t>> queued(W);
    for (std::size_t j = 0; j < idxs.size(); ++j) {
      dist::ChildProcess& p = procs[j % W];
      if (!p.ch.valid()) continue;
      dist::WireWriter w;
      w.u8(static_cast<std::uint8_t>(phase));
      w.u32(static_cast<std::uint32_t>(idxs[j]));
      if (!p.ch.send_frame(dist::MsgType::kEvalPoint, w.take(),
                           kReplyTimeoutMs)) {
        drop(p);
        continue;
      }
      queued[j % W].push_back(j);
    }
    // Collect per worker, in its request order (SOCK_STREAM keeps replies
    // ordered). A failed or late reply drops the worker; everything it had
    // not answered is evaluated below.
    for (std::size_t w = 0; w < W; ++w) {
      for (const std::size_t j : queued[w]) {
        dist::ChildProcess& p = procs[w];
        if (!p.ch.valid()) break;
        dist::Frame f;
        if (p.ch.recv_frame(&f, kReplyTimeoutMs) !=
                dist::Channel::RecvStatus::kOk ||
            f.type != dist::MsgType::kReply) {
          drop(p);
          break;
        }
        dist::WireReader r(f.payload);
        fields(r, evals[j]);
        if (!r.ok() || !r.at_end()) {
          drop(p);
          break;
        }
        answered[j] = 1;
      }
    }
    // Graceful degradation: unanswered points run in this process.
    for (std::size_t j = 0; j < idxs.size(); ++j) {
      if (answered[j]) continue;
      evals[j] = detail::eval_point(points, idxs[j], phase);
      fallback_points.add();
    }
    return evals;
  };

  ExplorationOutcome out = detail::funnel_outcome(
      points, verify_top, options.analytical_prefilter, eval_phase);

  for (dist::ChildProcess& p : procs) dist::end_child(&p);
  return out;
}

}  // namespace socpower::core
