// Communication-architecture exploration for the TCP/IP NIC subsystem — the
// iterative use-case the paper's co-estimation framework targets (Section
// 5.3). Sweeps DMA block size and arbitration priority assignment, then
// recommends the minimum-energy configuration. The bus parameters change
// between runs without recompiling the system description.
//
// Usage: explore_tcpip [num_packets] [packet_bytes] [threads]
// (threads defaults to $SOCPOWER_THREADS, then 1; 0 = one per hardware
// thread. Results are bit-identical for any thread count.)
// Set SOCPOWER_HW_REACTION_CACHE=0 to disable the gate-level reaction cache
// (results are bit-identical either way).
// Set SOCPOWER_HW_REMOTE=1 to put every hardware estimator behind an
// out-of-process worker — bit-identical, and it degrades gracefully where
// fork is unavailable.
// Set SOCPOWER_HW_ANALYTICAL=1 to give every exploration point a third,
// cheapest tier — the calibrated "hw.analytical" backend — and
// SOCPOWER_ANALYTICAL_PREFILTER=K to run the three-tier funnel: the
// analytical tier sweeps every point, the best K proceed to the coarse
// ranking and exact verification. Whenever the kept K covers the true
// coarse top candidates the outcome is bit-identical to the two-phase run.
// Set SOCPOWER_TRACE=out.json to collect telemetry and write a Chrome
// trace-event file (open in chrome://tracing or https://ui.perfetto.dev);
// SOCPOWER_TELEMETRY=1 enables the counters alone.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/coestimator.hpp"
#include "core/explorer.hpp"
#include "systems/tcpip.hpp"
#include "telemetry/telemetry.hpp"
#include "util/env.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

using namespace socpower;

int main(int argc, char** argv) {
  const int packets = argc > 1 ? std::atoi(argv[1]) : 4;
  const int bytes = argc > 2 ? std::atoi(argv[2]) : 256;
  const std::string trace_path = telemetry::configure_from_env();
  // Negative or absurd counts would otherwise wrap through unsigned and ask
  // the pool for billions of threads; clamp to a sane range (0 = auto).
  const auto clamp_threads = [](long v) -> unsigned {
    return static_cast<unsigned>(std::clamp(v, 0l, 1024l));
  };
  unsigned threads =
      argc > 3 ? clamp_threads(std::strtol(argv[3], nullptr, 10))
               : clamp_threads(util::env_int("SOCPOWER_THREADS", 1));
  threads = resolve_thread_count(threads);

  const bool hw_rcache = util::env_bool("SOCPOWER_HW_REACTION_CACHE", true);
  const bool hw_remote = util::env_bool("SOCPOWER_HW_REMOTE", false);
  const bool hw_analytical = util::env_bool("SOCPOWER_HW_ANALYTICAL", false);
  const auto prefilter = static_cast<std::size_t>(
      std::clamp(util::env_int("SOCPOWER_ANALYTICAL_PREFILTER", 0), 0l,
                 1l << 20));

  std::printf("exploring the TCP/IP subsystem integration architecture\n");
  std::printf("workload: %d packets x %d bytes, %u worker thread(s)%s\n\n",
              packets, bytes, threads,
              hw_remote ? ", remote HW estimators" : "");

  struct Point {
    unsigned dma;
    int pc, pi, pk;
    double total_uj, cpu_uj, bus_uj;
    sim::SimTime cycles;
  };
  std::vector<Point> points;

  const int perms[6][3] = {{3, 2, 1}, {3, 1, 2}, {2, 3, 1},
                           {1, 3, 2}, {2, 1, 3}, {1, 2, 3}};
  const unsigned dmas[] = {4u, 16u, 64u, 128u};
  // Every (dma, priority) point is an independent co-estimation; run them on
  // the worker pool and collect results by index.
  struct Sweep {
    unsigned dma;
    const int* pr;
  };
  std::vector<Sweep> sweep;
  for (const unsigned dma : dmas)
    for (const auto& pr : perms) sweep.push_back({dma, pr});
  points.resize(sweep.size());
  std::vector<int> functional_ok(sweep.size(), 1);
  ThreadPool pool(threads);
  pool.parallel_for(sweep.size(), [&](std::size_t i) {
    const auto [dma, pr] = sweep[i];
    systems::TcpIpParams p;
    p.num_packets = packets;
    p.packet_bytes = bytes;
    p.packet_gap = 30;
    p.dma_block_size = dma;
    p.prio_create = pr[0];
    p.prio_ipcheck = pr[1];
    p.prio_checksum = pr[2];
    p.ip_check_in_hw = true;  // SPARC + ASIC1 + ASIC2 architecture
    systems::TcpIpSystem sys(p);
    core::CoEstimatorConfig cfg;
    cfg.bus.line_cap_f = 10e-9;
    cfg.accel = core::Acceleration::kCaching;  // exploration-speed mode
    cfg.hw_reaction_cache = hw_rcache;
    cfg.hw_remote = hw_remote;
    core::CoEstimator est(&sys.network(), cfg);
    sys.configure(est);
    est.prepare();
    const auto r = est.run(sys.stimulus());
    functional_ok[i] = sys.packets_ok(est) == packets;
    points[i] = {dma, pr[0], pr[1], pr[2], to_microjoules(r.total_energy),
                 to_microjoules(r.cpu_energy), to_microjoules(r.bus_energy),
                 r.end_time};
  });
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    if (!functional_ok[i]) {
      std::fprintf(stderr, "functional check failed at dma=%u!\n",
                   sweep[i].dma);
      return 1;
    }
  }

  std::sort(points.begin(), points.end(),
            [](const Point& a, const Point& b) {
              return a.total_uj < b.total_uj;
            });

  TextTable t({"rank", "DMA", "prio CP/IP/CK", "total uJ", "cpu uJ",
               "bus uJ", "latency (cycles)"});
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    if (i < 8 || i + 3 >= points.size()) {
      char prio[16];
      std::snprintf(prio, sizeof prio, "%d/%d/%d", p.pc, p.pi, p.pk);
      t.add_row({std::to_string(i + 1), std::to_string(p.dma), prio,
                 TextTable::fixed(p.total_uj, 2),
                 TextTable::fixed(p.cpu_uj, 2), TextTable::fixed(p.bus_uj, 2),
                 std::to_string(p.cycles)});
    } else if (i == 8) {
      t.add_row({"...", "", "", "", "", "", ""});
    }
  }
  std::printf("%s", t.render().c_str());

  const Point& best = points.front();
  std::printf(
      "\nrecommendation: DMA block = %u bytes, priorities "
      "create_pack=%d ip_check=%d checksum=%d\n",
      best.dma, best.pc, best.pi, best.pk);
  std::printf(
      "energy span across the explored space: %.2f .. %.2f uJ (%.1f%%)\n",
      points.front().total_uj, points.back().total_uj,
      100.0 * (points.back().total_uj - points.front().total_uj) /
          points.front().total_uj);

  // Two-phase exploration (the workflow the paper's "relative accuracy"
  // result enables): sweep the DMA axis with the cheap macro-model, then
  // verify only the top candidates with the exact estimator.
  std::printf("\n--- two-phase exploration over the DMA axis ---\n");
  std::vector<core::ExplorationPoint> dma_points;
  for (const unsigned dma : {4u, 16u, 64u, 128u}) {
    auto make_run = [=](core::Acceleration accel, bool analytical) {
      return [=]() {
        systems::TcpIpParams p;
        p.num_packets = packets;
        p.packet_bytes = bytes;
        p.dma_block_size = dma;
        p.ip_check_in_hw = true;
        systems::TcpIpSystem sys(p);
        core::CoEstimatorConfig cfg;
        cfg.bus.line_cap_f = 10e-9;
        cfg.accel = accel;
        cfg.hw_reaction_cache = hw_rcache;
        cfg.hw_remote = hw_remote;
        if (analytical) {
          cfg.estimators.hw_gate = "hw.analytical";
          cfg.hw_analytical_calibration_vectors = 16;
        }
        core::CoEstimator est(&sys.network(), cfg);
        sys.configure(est);
        est.prepare();
        return est.run(sys.stimulus());
      };
    };
    core::ExplorationPoint pt;
    pt.label = "dma=" + std::to_string(dma);
    pt.run_coarse = make_run(core::Acceleration::kMacroModel, false);
    pt.run_exact = make_run(core::Acceleration::kNone, false);
    if (hw_analytical)
      pt.run_analytical = make_run(core::Acceleration::kMacroModel, true);
    dma_points.push_back(std::move(pt));
  }
  if (hw_analytical)
    std::printf("analytical tier enabled%s\n",
                prefilter > 0 ? " (three-tier funnel)" : "");
  const auto outcome = core::explore(
      dma_points, /*verify_top=*/2,
      {.threads = threads, .analytical_prefilter = prefilter});
  std::printf("%s", outcome.render().c_str());

  if (telemetry::enabled()) {
    std::printf("\n--- telemetry counters ---\n%s",
                telemetry::snapshot().render_table().c_str());
    if (!trace_path.empty()) {
      if (!telemetry::write_chrome_trace(trace_path)) return 1;
      std::printf("wrote Chrome trace to %s (%zu events, %llu dropped)\n",
                  trace_path.c_str(), telemetry::collector().event_count(),
                  static_cast<unsigned long long>(
                      telemetry::collector().dropped()));
    }
  }
  return 0;
}
