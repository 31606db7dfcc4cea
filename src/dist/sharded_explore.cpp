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
#include <cstdlib>
#include <vector>

#if !defined(_WIN32)
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "dist/channel.hpp"
#include "dist/wire.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/trace.hpp"
#include "util/thread_pool.hpp"

namespace socpower::core {

namespace {

#if !defined(_WIN32)

struct ShardProc {
  long pid = -1;
  dist::Channel ch;
  bool alive = false;
};

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
    const int phase = r.get_u8();
    const std::size_t idx = r.get_u32();
    if (!r.ok() || !r.at_end() || idx >= points.size()) return 1;
    const detail::PointEval ev = detail::eval_point(points, idx, phase);
    dist::WireWriter w;
    w.put_u8(ev.has_result ? 1 : 0);
    w.put_f64(ev.total_energy);
    w.put_f64(ev.wall_seconds);
    if (!ch.send_frame(dist::MsgType::kReply, w.take())) return 1;
  }
}

#endif  // !_WIN32

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
#if defined(_WIN32)
  return explore(points, verify_top, serial);
#else
  auto& reg = telemetry::registry();
  telemetry::Counter& fallback_points =
      reg.counter("explore.sharded.fallback_points");
  telemetry::Counter& dist_fallbacks = reg.counter("dist.fallbacks");
  reg.counter("explore.sharded.workers").add(W);

  std::vector<ShardProc> procs(W);
  for (std::size_t w = 0; w < W; ++w) {
    dist::Channel parent_end;
    dist::Channel child_end;
    if (!dist::Channel::make_pair(&parent_end, &child_end)) continue;
    parent_end.set_parent_side();
    const pid_t pid = ::fork();
    if (pid < 0) continue;
    if (pid == 0) {
      dist::close_parent_fds_in_child();
      const bool crash = options.debug_crash_worker == static_cast<int>(w);
      std::_Exit(serve_shard(child_end, points, crash));
    }
    child_end.close();
    procs[w].pid = static_cast<long>(pid);
    procs[w].ch = std::move(parent_end);
    procs[w].alive = true;
  }

  const int timeout = static_cast<int>(options.reply_timeout_ms);
  auto drop = [&](ShardProc& p) {
    p.alive = false;
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
      ShardProc& p = procs[j % W];
      if (!p.alive) continue;
      dist::WireWriter w;
      w.put_u8(static_cast<std::uint8_t>(phase));
      w.put_u32(static_cast<std::uint32_t>(idxs[j]));
      if (!p.ch.send_frame(dist::MsgType::kEvalPoint, w.take(), timeout)) {
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
        ShardProc& p = procs[w];
        if (!p.alive) break;
        dist::Frame f;
        if (p.ch.recv_frame(&f, timeout) != dist::Channel::RecvStatus::kOk ||
            f.type != dist::MsgType::kReply) {
          drop(p);
          break;
        }
        dist::WireReader r(f.payload);
        const bool has = r.get_u8() != 0;
        const Joules energy = r.get_f64();
        const double wall = r.get_f64();
        if (!r.ok() || !r.at_end()) {
          drop(p);
          break;
        }
        evals[j] = {energy, wall, has};
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

  for (ShardProc& p : procs) {
    if (p.pid < 0) continue;
    if (p.alive && p.ch.valid())
      (void)p.ch.send_frame(dist::MsgType::kShutdown, {}, 1000);
    p.ch.close();
    // SIGKILL is a no-op for a worker that already exited; it guarantees the
    // blocking reap below cannot hang on a wedged one.
    ::kill(static_cast<pid_t>(p.pid), SIGKILL);
    int status = 0;
    (void)::waitpid(static_cast<pid_t>(p.pid), &status, 0);
  }
  return out;
#endif
}

}  // namespace socpower::core
