// Parallel design-space exploration: serial vs N-thread wall-clock for an
// 8-point communication-architecture sweep (the paper's Figure 7 workload
// shape), plus the parallel hardware batch flush. Energies must be
// bit-identical to the serial paths — the speedup is free accuracy-wise.
//
// Threads to sweep come from argv[1] or $SOCPOWER_THREADS (default 4).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/explorer.hpp"
#include "util/env.hpp"

using namespace socpower;

namespace {

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

core::RunResults run_flush(unsigned threads) {
  systems::TcpIpParams p;
  p.num_packets = 8;
  p.packet_bytes = 128;
  p.ip_check_in_hw = true;  // two ASICs -> two gate-level batches
  systems::TcpIpSystem sys(p);
  core::CoEstimatorConfig cfg;
  cfg.hw_flush_threads = threads;
  cfg.sync_spin = 200'000;
  core::CoEstimator est(&sys.network(), cfg);
  sys.configure(est);
  est.prepare();
  return est.run(sys.stimulus());
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
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("hardware threads: %u, sweeping up to %u pool threads\n\n", hw,
              max_threads);

  // ---- threaded two-phase exploration -------------------------------------
  const auto points = make_points();
  std::printf("exploration: %zu points, verify_top=3, caching coarse pass\n",
              points.size());

  double t0 = now_seconds();
  const auto serial = core::explore(points, /*verify_top=*/3);
  const double serial_s = now_seconds() - t0;

  TextTable t({"threads", "seconds", "speedup", "energies"});
  t.add_row({"1 (serial)", TextTable::fixed(serial_s, 3), "1.00x", "reference"});

  bool all_identical = true;
  double best_speedup = 1.0;
  std::vector<unsigned> sweep;
  for (unsigned n = 2; n <= max_threads; n *= 2) sweep.push_back(n);
  if (sweep.empty() || sweep.back() != max_threads)
    sweep.push_back(max_threads);
  for (const unsigned n : sweep) {
    t0 = now_seconds();
    const auto par =
        core::explore(points, /*verify_top=*/3, {.threads = n});
    const double par_s = now_seconds() - t0;
    const bool same = outcomes_identical(serial, par);
    all_identical = all_identical && same;
    const double speedup = serial_s / par_s;
    best_speedup = std::max(best_speedup, speedup);
    char sp[16];
    std::snprintf(sp, sizeof sp, "%.2fx", speedup);
    t.add_row({std::to_string(n), TextTable::fixed(par_s, 3), sp,
               same ? "bit-identical" : "MISMATCH"});
  }
  std::printf("%s", t.render().c_str());

  // ---- parallel hardware batch flush --------------------------------------
  std::printf("\nhardware batch flush (offline mode, one task per ASIC):\n");
  t0 = now_seconds();
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

  bench::BenchJson json("parallel_explore");
  json.metric("points", static_cast<double>(points.size()))
      .metric("max_threads", max_threads)
      .metric("explore_serial_s", serial_s)
      .metric("explore_best_speedup", best_speedup)
      .metric("flush_serial_s", flush_serial_s)
      .metric("flush_speedup", flush_serial_s / flush_par_s)
      .metric("bit_identical", all_identical ? 1.0 : 0.0);
  json.write();

  // ---- verdict -------------------------------------------------------------
  // Energy equality is the hard requirement everywhere. The wall-clock gate
  // only applies where the hardware can express it: with >= 4 hardware
  // threads a 4-thread, 8-point exploration must be >= 2x faster.
  bool shape_ok = all_identical;
  if (hw >= 4 && max_threads >= 4) {
    const bool fast_enough = best_speedup >= 2.0;
    std::printf("\nspeedup gate (>=2.00x at >=4 threads): %.2fx -> %s\n",
                best_speedup, fast_enough ? "ok" : "TOO SLOW");
    shape_ok = shape_ok && fast_enough;
  } else {
    std::printf(
        "\nspeedup gate skipped: %u hardware thread(s) cannot express a "
        "parallel speedup (energy equality still enforced)\n",
        hw);
  }

  std::printf("\nSHAPE CHECK: %s\n", shape_ok ? "PASS" : "FAIL");
  return shape_ok ? 0 : 1;
}
