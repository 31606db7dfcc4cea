// Parallel design-space exploration: serial vs N-thread wall-clock for an
// 8-point communication-architecture sweep (the paper's Figure 7 workload
// shape), plus the parallel hardware batch flush. Energies must be
// bit-identical to the serial paths — the speedup is free accuracy-wise.
//
// It also prints, without gating, what the dist wire protocol costs when it
// is NOT amortized over whole design points: one co-estimation run with the
// hardware estimators behind forked workers (hw_remote) vs in-process. That
// is the per-RPC overhead ceiling of the remote backends.
//
// Threads to sweep come from argv[1] or $SOCPOWER_THREADS (default 4).
//
// How the exploration speedup is measured: one warm-up sweep first (it is
// also the energy reference, and it pays the one-time costs, such as each
// design's shared build, that every later sweep reuses), then kPairs
// interleaved pairs (serial, threaded, serial, threaded, ...) per thread
// count. Each pair gives one serial/threaded ratio; the gate reads the
// median ratio at the largest thread count and the table prints its
// quartiles, so one slow or fast moment of a shared host cannot decide the
// verdict alone.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "bench_common.hpp"
#include "core/explorer.hpp"
#include "dist/wire.hpp"
#include "util/env.hpp"

using namespace socpower;

namespace {

/// Interleaved serial/threaded pairs per thread count.
constexpr int kPairs = 5;

/// CPUs this process may run on: its sched_getaffinity mask where the
/// platform has one, else the hardware thread count.
unsigned usable_cpus() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) == 0)
    return static_cast<unsigned>(CPU_COUNT(&set));
#endif
  return std::thread::hardware_concurrency();
}

struct Quartiles {
  double q1 = 0.0, median = 0.0, q3 = 0.0;
};

Quartiles quartiles(const std::vector<double>& v) {
  return {bench::quantile(v, 0.25), bench::quantile(v, 0.5),
          bench::quantile(v, 0.75)};
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<core::ExplorationPoint> make_points() {
  // 8 points: 4 DMA block sizes x 2 priority assignments.
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

/// One full TCP/IP co-estimation under `cfg`.
core::RunResults run_tcpip(const core::CoEstimatorConfig& cfg) {
  systems::TcpIpParams p;
  p.num_packets = 8;
  p.packet_bytes = 128;
  p.ip_check_in_hw = true;  // two ASICs -> two gate-level batches
  systems::TcpIpSystem sys(p);
  core::CoEstimator est(&sys.network(), cfg);
  sys.configure(est);
  est.prepare();
  return est.run(sys.stimulus());
}

core::RunResults run_flush(unsigned threads) {
  core::CoEstimatorConfig cfg;
  cfg.hw_flush_threads = threads;
  cfg.sync_spin = 200'000;
  return run_tcpip(cfg);
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_header(
      "Parallel co-estimation: threaded exploration and HW batch flush",
      "Section 6 workload (design-space exploration), engineering speedup");

  unsigned max_threads =
      argc > 1 ? static_cast<unsigned>(std::atoi(argv[1]))
               : static_cast<unsigned>(
                     socpower::util::env_int("SOCPOWER_THREADS", 4));
  if (max_threads < 2) max_threads = 2;
  const unsigned cpus = usable_cpus();
  std::printf("usable CPUs: %u, sweeping up to %u pool threads\n\n", cpus,
              max_threads);

  // ---- threaded two-phase exploration -------------------------------------
  const auto points = make_points();
  std::printf("exploration: %zu points, verify_top=3, caching coarse pass, "
              "warm-up then %d interleaved serial/threaded pairs per row\n",
              points.size(), kPairs);

  const auto serial = core::explore(points, /*verify_top=*/3);  // warm-up

  TextTable t({"threads", "serial s", "threaded s", "speedup", "q1-q3",
               "energies"});
  bool all_identical = true;
  double best_speedup = 1.0;
  double serial_s = 0.0;  // median serial sweep of the last row
  Quartiles gated;        // speedup at max_threads
  std::vector<unsigned> sweep;
  for (unsigned n = 2; n <= max_threads; n *= 2) sweep.push_back(n);
  if (sweep.empty() || sweep.back() != max_threads)
    sweep.push_back(max_threads);
  for (const unsigned n : sweep) {
    std::vector<double> serial_times, par_times, ratios;
    bool same = true;
    for (int k = 0; k < kPairs; ++k) {
      double t0 = now_seconds();
      const auto ser = core::explore(points, /*verify_top=*/3);
      serial_times.push_back(now_seconds() - t0);
      t0 = now_seconds();
      const auto par = core::explore(points, /*verify_top=*/3, {.threads = n});
      par_times.push_back(now_seconds() - t0);
      ratios.push_back(serial_times.back() / par_times.back());
      same = same && outcomes_identical(serial, ser) &&
             outcomes_identical(serial, par);
    }
    all_identical = all_identical && same;
    const Quartiles q = quartiles(ratios);
    best_speedup = std::max(best_speedup, q.median);
    serial_s = quartiles(serial_times).median;
    if (n == max_threads) gated = q;
    char sp[16], iqr[32];
    std::snprintf(sp, sizeof sp, "%.2fx", q.median);
    std::snprintf(iqr, sizeof iqr, "%.2f-%.2fx", q.q1, q.q3);
    t.add_row({std::to_string(n), TextTable::fixed(serial_s, 3),
               TextTable::fixed(quartiles(par_times).median, 3), sp, iqr,
               same ? "bit-identical" : "MISMATCH"});
  }
  std::printf("%s", t.render().c_str());

  // ---- parallel hardware batch flush --------------------------------------
  std::printf("\nhardware batch flush (offline mode, one task per ASIC):\n");
  double t0 = now_seconds();
  const auto flush_serial = run_flush(1);
  const double flush_serial_s = now_seconds() - t0;
  t0 = now_seconds();
  const auto flush_par = run_flush(max_threads);
  const double flush_par_s = now_seconds() - t0;
  const bool flush_same =
      flush_serial.total_energy == flush_par.total_energy &&
      flush_serial.hw_energy == flush_par.hw_energy &&
      flush_serial.process_energy == flush_par.process_energy &&
      flush_serial.gate_sim_cycles == flush_par.gate_sim_cycles;
  all_identical = all_identical && flush_same;
  std::printf(
      "  serial %.3fs, %u threads %.3fs (%.2fx), totals %s\n", flush_serial_s,
      max_threads, flush_par_s, flush_serial_s / flush_par_s,
      flush_same ? "bit-identical" : "MISMATCH");

  // ---- remote hardware estimator overhead (printed, not gated) -----------
  if (dist::supported()) {
    core::CoEstimatorConfig remote_cfg;
    remote_cfg.hw_remote = true;
    t0 = now_seconds();
    const auto inproc = run_tcpip({});
    const double inproc_s = now_seconds() - t0;
    t0 = now_seconds();
    const auto remote = run_tcpip(remote_cfg);
    const double remote_s = now_seconds() - t0;
    const bool remote_same = inproc.total_energy == remote.total_energy &&
                             inproc.hw_energy == remote.hw_energy &&
                             inproc.process_energy == remote.process_energy &&
                             inproc.gate_sim_cycles == remote.gate_sim_cycles;
    std::printf(
        "\nremote HW estimator workers (hw_remote, one full run):\n"
        "  in-process %.3fs, remote %.3fs (%.2fx overhead), totals %s\n",
        inproc_s, remote_s, remote_s / inproc_s,
        remote_same ? "bit-identical" : "MISMATCH");
  }

  // ---- verdict -------------------------------------------------------------
  // Energy equality is the hard requirement everywhere. The wall-clock gate
  // only applies where the host can express it: a >= 4-thread, 8-point
  // exploration on at least that many usable CPUs must be >= 2x faster, as
  // the median of its pairs. Otherwise the skip and its reason are recorded.
  bool shape_ok = all_identical;
  const bool gate_applies = max_threads >= 4 && cpus >= max_threads;
  if (gate_applies) {
    const bool fast_enough = gated.median >= 2.0;
    std::printf(
        "\nspeedup gate (median >= 2.00x at %u threads): %.2fx "
        "(q1 %.2fx, q3 %.2fx) -> %s\n",
        max_threads, gated.median, gated.q1, gated.q3,
        fast_enough ? "ok" : "TOO SLOW");
    shape_ok = shape_ok && fast_enough;
  } else if (max_threads < 4) {
    std::printf("\nspeedup gate skipped: %u threads requested, the gate "
                "needs >= 4 (energy equality still enforced)\n",
                max_threads);
  } else {
    std::printf("\nspeedup gate skipped: sched_getaffinity reports %u "
                "usable CPU(s) for %u threads (energy equality still "
                "enforced)\n",
                cpus, max_threads);
  }

  bench::BenchJson json("parallel_explore");
  json.metric("points", static_cast<double>(points.size()))
      .metric("max_threads", max_threads)
      .metric("usable_cpus", cpus)
      .metric("explore_serial_s", serial_s)
      .metric("explore_best_speedup", best_speedup)
      .metric("explore_speedup_q1", gated.q1)
      .metric("explore_speedup_q3", gated.q3)
      .metric("speedup_gate_applied", gate_applies ? 1.0 : 0.0)
      .metric("flush_serial_s", flush_serial_s)
      .metric("flush_speedup", flush_serial_s / flush_par_s)
      .metric("bit_identical", all_identical ? 1.0 : 0.0);
  json.write();

  std::printf("\nSHAPE CHECK: %s\n", shape_ok ? "PASS" : "FAIL");
  return shape_ok ? 0 : 1;
}
