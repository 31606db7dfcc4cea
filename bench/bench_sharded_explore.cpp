// Distributed co-estimation: process-sharded design-space exploration and
// the out-of-process hardware estimator backends (E17).
//
// Part 1 times the same 8-point exploration as bench_parallel_explore,
// serial vs sharded over forked workers. Outcomes must be bit-identical —
// the shards feed the exact serial reduction — so the speedup is free
// accuracy-wise, like every other acceleration in this repo.
//
// Part 2 measures what the wire protocol costs when it is NOT amortized
// over whole design points: a single co-estimation run with the hardware
// estimators behind a forked worker (hw_remote) vs in-process. This is the
// per-RPC overhead ceiling; chunked eager draining keeps it bounded.
//
// Worker count comes from argv[1] or $SOCPOWER_DIST_WORKERS (default 4).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/explorer.hpp"
#include "dist/wire.hpp"
#include "util/env.hpp"

using namespace socpower;

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<core::ExplorationPoint> make_points() {
  // Same shape as bench_parallel_explore: 4 DMA sizes x 2 priority orders.
  std::vector<core::ExplorationPoint> pts;
  const int prios[2][3] = {{3, 2, 1}, {1, 2, 3}};
  for (const unsigned dma : {4u, 16u, 64u, 128u}) {
    for (const auto& pr : prios) {
      auto make_run = [=](core::Acceleration accel) {
        return [=]() {
          systems::TcpIpParams p;
          p.num_packets = 6;
          p.packet_bytes = 128;
          p.packet_gap = 30;
          p.dma_block_size = dma;
          p.prio_create = pr[0];
          p.prio_ipcheck = pr[1];
          p.prio_checksum = pr[2];
          p.ip_check_in_hw = true;
          systems::TcpIpSystem sys(p);
          core::CoEstimatorConfig cfg;
          cfg.bus.line_cap_f = 10e-9;
          cfg.accel = accel;
          cfg.sync_spin = 200'000;  // model the per-invocation IPC round-trip
          core::CoEstimator est(&sys.network(), cfg);
          sys.configure(est);
          est.prepare();
          return est.run(sys.stimulus());
        };
      };
      char label[48];
      std::snprintf(label, sizeof label, "dma=%u prio=%d/%d/%d", dma, pr[0],
                    pr[1], pr[2]);
      pts.push_back({label, make_run(core::Acceleration::kCaching),
                     make_run(core::Acceleration::kNone),
                     /*run_analytical=*/nullptr});
    }
  }
  return pts;
}

bool outcomes_identical(const core::ExplorationOutcome& a,
                        const core::ExplorationOutcome& b) {
  if (a.ranked.size() != b.ranked.size()) return false;
  for (std::size_t i = 0; i < a.ranked.size(); ++i) {
    if (a.ranked[i].label != b.ranked[i].label) return false;
    if (a.ranked[i].coarse_energy != b.ranked[i].coarse_energy) return false;
    if (a.ranked[i].exact_energy != b.ranked[i].exact_energy) return false;
    if (a.ranked[i].coarse_rank != b.ranked[i].coarse_rank) return false;
  }
  return a.winner_confirmed == b.winner_confirmed;
}

core::RunResults run_once(bool remote) {
  systems::TcpIpParams p;
  p.num_packets = 8;
  p.packet_bytes = 128;
  p.ip_check_in_hw = true;
  systems::TcpIpSystem sys(p);
  core::CoEstimatorConfig cfg;
  cfg.hw_remote = remote;
  core::CoEstimator est(&sys.network(), cfg);
  sys.configure(est);
  est.prepare();
  return est.run(sys.stimulus());
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_header(
      "Distributed co-estimation: sharded exploration and remote HW workers",
      "process-level scaling; sharded outcomes must stay bit-identical");

  if (!dist::supported()) {
    std::printf("fork/socketpair unavailable on this platform; nothing to "
                "measure\n\nSHAPE CHECK: PASS\n");
    return 0;
  }

  unsigned max_workers =
      argc > 1 ? static_cast<unsigned>(std::atoi(argv[1]))
               : static_cast<unsigned>(
                     socpower::util::env_int("SOCPOWER_DIST_WORKERS", 4));
  if (max_workers < 2) max_workers = 2;
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("hardware threads: %u, sweeping up to %u worker processes\n\n",
              hw, max_workers);

  // ---- sharded two-phase exploration --------------------------------------
  const auto points = make_points();
  std::printf("exploration: %zu points, verify_top=3, caching coarse pass\n",
              points.size());

  double t0 = now_seconds();
  const auto serial = core::explore(points, /*verify_top=*/3);
  const double serial_s = now_seconds() - t0;

  TextTable t({"workers", "seconds", "speedup", "energies"});
  t.add_row(
      {"1 (serial)", TextTable::fixed(serial_s, 3), "1.00x", "reference"});

  bool all_identical = true;
  double best_speedup = 1.0;
  std::vector<unsigned> sweep;
  for (unsigned n = 2; n <= max_workers; n *= 2) sweep.push_back(n);
  if (sweep.empty() || sweep.back() != max_workers)
    sweep.push_back(max_workers);
  for (const unsigned n : sweep) {
    t0 = now_seconds();
    const auto sharded =
        core::explore_sharded(points, /*verify_top=*/3, {.workers = n});
    const double sharded_s = now_seconds() - t0;
    const bool same = outcomes_identical(serial, sharded);
    all_identical = all_identical && same;
    const double speedup = serial_s / sharded_s;
    best_speedup = std::max(best_speedup, speedup);
    char sp[16];
    std::snprintf(sp, sizeof sp, "%.2fx", speedup);
    t.add_row({std::to_string(n), TextTable::fixed(sharded_s, 3), sp,
               same ? "bit-identical" : "MISMATCH"});
  }
  std::printf("%s", t.render().c_str());

  // ---- remote hardware estimator overhead ---------------------------------
  std::printf("\nremote HW estimator workers (hw_remote, one full run):\n");
  t0 = now_seconds();
  const auto inproc = run_once(/*remote=*/false);
  const double inproc_s = now_seconds() - t0;
  t0 = now_seconds();
  const auto remote = run_once(/*remote=*/true);
  const double remote_s = now_seconds() - t0;
  const bool remote_same =
      inproc.total_energy == remote.total_energy &&
      inproc.hw_energy == remote.hw_energy &&
      inproc.process_energy == remote.process_energy &&
      inproc.gate_sim_cycles == remote.gate_sim_cycles;
  all_identical = all_identical && remote_same;
  const double overhead = remote_s / inproc_s;
  std::printf("  in-process %.3fs, remote %.3fs (%.2fx overhead), totals %s\n",
              inproc_s, remote_s, overhead,
              remote_same ? "bit-identical" : "MISMATCH");

  // ---- verdict -------------------------------------------------------------
  // Energy equality is the hard requirement everywhere. The wall-clock gate
  // only applies where the hardware can express it: with >= 4 hardware
  // threads a 4-worker, 8-point sharded sweep must beat serial by >= 1.5x
  // (fork + IPC cost some of what threads get for free).
  bool shape_ok = all_identical;
  if (hw >= 4 && max_workers >= 4) {
    const bool fast_enough = best_speedup >= 1.5;
    std::printf("\nspeedup gate (>=1.50x at >=4 workers): %.2fx -> %s\n",
                best_speedup, fast_enough ? "ok" : "TOO SLOW");
    shape_ok = shape_ok && fast_enough;
  } else {
    std::printf(
        "\nspeedup gate skipped: %u hardware thread(s) cannot express a "
        "parallel speedup (energy equality still enforced)\n",
        hw);
  }

  bench::BenchJson json("sharded_explore");
  json.metric("points", static_cast<double>(points.size()))
      .metric("max_workers", max_workers)
      .metric("explore_serial_s", serial_s)
      .metric("explore_best_speedup", best_speedup)
      .metric("remote_overhead_x", overhead)
      .metric("bit_identical", all_identical ? 1.0 : 0.0);
  json.write();

  std::printf("\nSHAPE CHECK: %s\n", shape_ok ? "PASS" : "FAIL");
  return shape_ok ? 0 : 1;
}
