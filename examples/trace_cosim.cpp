// Telemetry demo: run the TCP/IP co-estimation with tracing on, print the
// counter snapshot, and export a Chrome trace-event file.
//
// The trace shows the co-estimation pipeline's anatomy on a wall-clock
// timeline — every software transition (ISS invocation vs. energy-cache
// hit), every hardware batch flush, the exploration phases — with each span
// carrying the simulated time at which the transition fired, so a power peak
// in the PowerTrace waveform can be lined up with the phase that caused it.
//
// Usage: trace_cosim [out.json] [num_packets]
//   out.json     trace output path (default trace_cosim.json)
//   num_packets  workload size (default 6)
// Set SOCPOWER_HW_REMOTE=1 to run the hardware estimators in a forked
// worker process: the trace gains dist.remote_flush_unit spans and the
// counter dump reports the RPC/byte traffic the wire protocol carried.
// Open the result in chrome://tracing or https://ui.perfetto.dev.
#include <cstdio>
#include <cstdlib>

#include "core/coestimator.hpp"
#include "core/report.hpp"
#include "systems/tcpip.hpp"
#include "telemetry/telemetry.hpp"
#include "util/env.hpp"

using namespace socpower;

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "trace_cosim.json";
  const int packets = argc > 2 ? std::atoi(argv[2]) : 6;

  telemetry::TelemetryConfig tcfg;
  tcfg.enabled = true;
  tcfg.trace = true;
  telemetry::configure(tcfg);

  systems::TcpIpParams p;
  p.num_packets = packets;
  p.packet_bytes = 128;
  p.dma_block_size = 16;
  p.ip_check_in_hw = true;
  systems::TcpIpSystem sys(p);

  core::CoEstimatorConfig cfg;
  cfg.accel = core::Acceleration::kCaching;
  cfg.hw_reaction_cache = util::env_bool("SOCPOWER_HW_REACTION_CACHE", true);
  cfg.hw_remote = util::env_bool("SOCPOWER_HW_REMOTE", false);
  core::CoEstimator est(&sys.network(), cfg);
  sys.configure(est);
  est.prepare();

  const core::RunResults exact = est.run(sys.stimulus());
  std::printf("run 1 (cold cache): %s\n", exact.summary().c_str());
  const core::RunResults warm = est.run(sys.stimulus());
  std::printf("run 2 (warm cache): %s\n\n", warm.summary().c_str());

  // The report appends the telemetry section when collection is enabled.
  std::printf("%s\n", core::render_report(sys.network(), est, warm, {})
                          .c_str());

  const telemetry::Snapshot snap = telemetry::snapshot();
  const std::uint64_t hits = snap.counter_or("ecache.hits");
  const std::uint64_t misses = snap.counter_or("ecache.misses");
  if (hits + misses > 0)
    std::printf("energy-cache hit rate across both runs: %.1f%%\n",
                100.0 * static_cast<double>(hits) /
                    static_cast<double>(hits + misses));
  // One layer down: how often the gate-level simulator replayed a memoized
  // reaction instead of sweeping the netlist (both HW backends publish
  // under their own telemetry namespace).
  for (const char* backend : {"hw.gate", "hw.rtl"}) {
    const std::string prefix = std::string("estimator.") + backend + ".rcache.";
    const std::uint64_t rhits = snap.counter_or(prefix + "hits");
    const std::uint64_t rmisses = snap.counter_or(prefix + "misses");
    if (rhits + rmisses == 0) continue;
    std::printf("%s reaction-cache hit rate across both runs: %.1f%% "
                "(%llu gate evaluations skipped)\n",
                backend,
                100.0 * static_cast<double>(rhits) /
                    static_cast<double>(rhits + rmisses),
                static_cast<unsigned long long>(
                    snap.counter_or(prefix + "skipped_gate_evals")));
  }

  if (cfg.hw_remote) {
    for (const char* backend : {"hw.gate.remote", "hw.rtl.remote"}) {
      const std::string prefix = std::string("estimator.") + backend + ".dist.";
      const std::uint64_t rpcs = snap.counter_or(prefix + "rpcs");
      if (rpcs == 0) continue;
      std::printf("%s: %llu RPCs, %llu bytes out, %llu bytes in, "
                  "%llu fallback(s)\n",
                  backend, static_cast<unsigned long long>(rpcs),
                  static_cast<unsigned long long>(
                      snap.counter_or(prefix + "bytes_tx")),
                  static_cast<unsigned long long>(
                      snap.counter_or(prefix + "bytes_rx")),
                  static_cast<unsigned long long>(
                      snap.counter_or(prefix + "fallbacks")));
    }
  }

  if (!telemetry::write_chrome_trace(out_path)) return 1;
  std::printf("wrote %s (%zu events, %llu dropped) — open in "
              "chrome://tracing or ui.perfetto.dev\n",
              out_path, telemetry::collector().event_count(),
              static_cast<unsigned long long>(
                  telemetry::collector().dropped()));
  return 0;
}
