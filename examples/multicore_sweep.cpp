// Multicore SoC sweep: co-estimated vs separate-estimated energy over the
// N-core scenario family (systems::MulticoreSystem), on both interconnects.
//
// The direct sweep shows the paper's claim sharpened by sharing: the
// separate-estimation error grows with the core count, because N interleaved
// DONE streams plus interconnect contention and coherence stalls are exactly
// what a timing-independent behavioral trace cannot see. The two-phase
// exploration at the end picks the minimum-energy (cores, interconnect)
// configuration the way explore_tcpip does for the NIC subsystem.
//
// Usage: multicore_sweep [num_packets] [threads]
// (threads defaults to $SOCPOWER_THREADS, then 1; 0 = one per hardware
// thread. Results are bit-identical for any thread count.)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/coestimator.hpp"
#include "core/explorer.hpp"
#include "systems/multicore.hpp"
#include "util/env.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

using namespace socpower;

namespace {

core::RunResults run_point(const systems::MulticoreParams& params,
                           core::Acceleration accel, bool separate) {
  systems::MulticoreSystem sys(params);
  core::CoEstimatorConfig cfg = sys.config_template();
  cfg.accel = accel;
  core::CoEstimator est(&sys.network(), cfg);
  sys.configure(est);
  est.prepare();
  const sim::Stimulus stim = sys.stimulus(8192);
  return separate ? est.run_separate(stim) : est.run(stim);
}

}  // namespace

int main(int argc, char** argv) {
  const int packets = argc > 1 ? std::atoi(argv[1]) : 6;
  const auto clamp_threads = [](long v) -> unsigned {
    return static_cast<unsigned>(std::clamp(v, 0l, 1024l));
  };
  unsigned threads =
      argc > 2 ? clamp_threads(std::strtol(argv[2], nullptr, 10))
               : clamp_threads(util::env_int("SOCPOWER_THREADS", 1));
  threads = resolve_thread_count(threads);

  std::printf("multicore SoC sweep: %d packets/worker, %u worker thread(s)\n\n",
              packets, threads);

  const core::InterconnectKind kinds[] = {core::InterconnectKind::kBus,
                                          core::InterconnectKind::kNoc};
  const unsigned core_counts[] = {1u, 2u, 4u};

  TextTable t({"interconnect", "cores", "co energy (uJ)", "sep energy (uJ)",
               "sep error", "ic wait cyc", "invals", "writebacks"});
  for (const core::InterconnectKind ic : kinds) {
    for (const unsigned cores : core_counts) {
      systems::MulticoreParams mp;
      mp.cores = cores;
      mp.num_packets = packets;
      mp.interconnect = ic;
      const core::RunResults co =
          run_point(mp, core::Acceleration::kNone, false);
      const core::RunResults sep =
          run_point(mp, core::Acceleration::kNone, true);
      const double err = std::fabs(sep.total_energy - co.total_energy) /
                         co.total_energy;
      t.add_row({core::interconnect_name(ic), std::to_string(cores),
                 TextTable::fixed(co.total_energy * 1e6, 4),
                 TextTable::fixed(sep.total_energy * 1e6, 4),
                 TextTable::fixed(100.0 * err, 2) + "%",
                 std::to_string(co.bus_totals.wait_cycles),
                 std::to_string(co.coherence.invalidations),
                 std::to_string(co.coherence.writebacks)});
    }
  }
  std::printf("%s", t.render().c_str());

  // Two-phase exploration over the same space: coarse macro-model sweep,
  // exact verification of the shortlist.
  std::printf("\n--- two-phase exploration over (cores, interconnect) ---\n");
  std::vector<core::ExplorationPoint> pts;
  for (const core::InterconnectKind ic : kinds) {
    for (const unsigned cores : core_counts) {
      auto make_run = [=](core::Acceleration accel) {
        return [=]() {
          systems::MulticoreParams mp;
          mp.cores = cores;
          mp.num_packets = packets;
          mp.interconnect = ic;
          return run_point(mp, accel, false);
        };
      };
      pts.push_back({std::string(core::interconnect_name(ic)) + " x" +
                         std::to_string(cores),
                     make_run(core::Acceleration::kMacroModel),
                     make_run(core::Acceleration::kNone),
                     /*run_analytical=*/nullptr});
    }
  }
  const auto outcome =
      core::explore(pts, /*verify_top=*/2, {.threads = threads});
  std::printf("%s", outcome.render().c_str());
  return outcome.winner_confirmed ? 0 : 1;
}
