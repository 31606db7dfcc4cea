// Telemetry overhead: the co-estimation pipeline with telemetry disabled,
// with counters enabled, and with counters + tracing, reported per layer
// (full TCP/IP co-estimation and the bare ISS invocation loop).
//
// Gate (optimized builds only): counters-ENABLED wall clock within 2% of
// disabled on both layers, as the median over rounds of the per-round
// ratio. Each round runs every mode once, in an order that rotates from
// round to round, so a slow stretch of a shared host lands on all modes of
// the rounds it covers and shifts only a minority of the ratios; a best-of
// over a few runs, by contrast, is decided by one lucky or unlucky run. The
// disabled path does a strict subset of the
// enabled path's work — the same relaxed-load branches, none of the atomic
// adds — so passing the enabled-vs-disabled gate bounds the disabled-path
// cost over an uninstrumented build a fortiori. Energies must stay
// bit-identical across all three modes in every build type: telemetry
// observes, it must never steer.
//
// No sync spins are configured here, unlike the paper-table benches: spin
// padding would dilute the telemetry fraction and flatter the gate.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "iss/assembler.hpp"
#include "iss/iss.hpp"
#include "telemetry/telemetry.hpp"
#include "util/env.hpp"

using namespace socpower;

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class Mode { kDisabled, kCounters, kTrace };

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kDisabled: return "disabled";
    case Mode::kCounters: return "counters";
    case Mode::kTrace: return "counters+trace";
  }
  return "?";
}

void apply(Mode m) {
  telemetry::TelemetryConfig cfg;
  cfg.enabled = m != Mode::kDisabled;
  cfg.trace = m == Mode::kTrace;
  telemetry::configure(cfg);
  telemetry::reset();
}

struct Layer {
  std::vector<double> seconds[3];     // indexed by Mode, one per round
  double check[3] = {0.0, 0.0, 0.0};  // bit-identity witness per mode
};

/// Full co-estimation of the TCP/IP subsystem (caching mode, so the run
/// crosses the energy cache, ISS, gate sim, bus and icache layers).
double run_coest(double* check) {
  systems::TcpIpParams p;
  p.num_packets = 8;
  p.packet_bytes = 64;
  p.packet_gap = 40;
  p.dma_block_size = 16;
  p.ip_check_in_hw = true;
  systems::TcpIpSystem sys(p);
  core::CoEstimatorConfig cfg;
  cfg.accel = core::Acceleration::kCaching;
  core::CoEstimator est(&sys.network(), cfg);
  sys.configure(est);
  est.prepare();
  const double t0 = now_seconds();
  const core::RunResults r = est.run(sys.stimulus());
  const double dt = now_seconds() - t0;
  *check = r.total_energy;
  return dt;
}

/// Bare ISS invocation loop — the hottest instrumented layer; its telemetry
/// is one enabled() check plus per-invocation delta adds.
double run_iss(unsigned runs, double* check) {
  // ~6000 executed instructions per invocation: long enough that the
  // per-invocation telemetry epilogue (one enabled() branch, block-cache
  // stat deltas) is measured against realistic work, short enough that
  // thousands of invocations stay fast. Mind the delay slot: a bare `halt`
  // after the branch would execute every iteration and end the loop.
  static const char* kSrc = R"(
      movi r1, 0
      movi r2, 2000
loop: addi r1, r1, 3
      addi r2, r2, -1
      bne  r2, r0, loop
      nop               ; delay slot
      halt
  )";
  const iss::AsmResult asmres = iss::assemble(kSrc);
  if (!asmres.ok()) {
    std::fprintf(stderr, "asm: %s\n", asmres.error.c_str());
    std::exit(1);
  }
  iss::Iss cpu(iss::InstructionPowerModel::sparclite({}), {});
  cpu.load_program(asmres.program, 0);
  double energy = 0.0;
  const double t0 = now_seconds();
  for (unsigned i = 0; i < runs; ++i) {
    cpu.reset_cpu();
    cpu.set_pc(0);
    const iss::RunResult r = cpu.run();
    if (!r.halted || r.fault) {
      std::fprintf(stderr, "kernel did not halt cleanly\n");
      std::exit(1);
    }
    energy += r.energy;
  }
  const double dt = now_seconds() - t0;
  *check = energy;
  return dt;
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_header(
      "Telemetry overhead: disabled vs counters vs counters+trace",
      "engineering gate; disabled path must stay within 2%");

  // At least 15 rounds: fewer leave the median at the mercy of the noise
  // the rotation is meant to outvote.
  constexpr int kMinRounds = 15;
  const int rounds = std::max(
      kMinRounds,
      argc > 1 ? std::atoi(argv[1])
               : static_cast<int>(util::env_int("SOCPOWER_BENCH_REPS",
                                                kMinRounds)));
  const auto iss_runs = static_cast<unsigned>(
      util::env_int("SOCPOWER_ISS_RUNS", 5000));
  std::printf("%d interleaved rounds; ISS layer: %u invocations per run\n\n",
              rounds, iss_runs);

  constexpr Mode kModes[] = {Mode::kDisabled, Mode::kCounters, Mode::kTrace};
  Layer coest, issl;
  for (int round = 0; round < rounds; ++round) {
    for (std::size_t k = 0; k < 3; ++k) {
      const Mode m = kModes[(static_cast<std::size_t>(round) + k) % 3];
      const auto mi = static_cast<std::size_t>(m);
      apply(m);
      coest.seconds[mi].push_back(run_coest(&coest.check[mi]));
      issl.seconds[mi].push_back(run_iss(iss_runs, &issl.check[mi]));
    }
  }
  apply(Mode::kDisabled);

  const struct {
    const char* name;
    const Layer* layer;
  } kLayers[] = {{"tcpip co-estimation", &coest}, {"ISS invocations", &issl}};

  TextTable t({"layer", "mode", "median seconds", "vs disabled: q1",
               "median", "q3"});
  bool identical = true;
  double worst_ratio = 0.0;
  for (const auto& [name, layer] : kLayers) {
    for (const Mode m : kModes) {
      const auto mi = static_cast<std::size_t>(m);
      std::vector<double> ratios;
      for (int round = 0; round < rounds; ++round) {
        const auto r = static_cast<std::size_t>(round);
        ratios.push_back(layer->seconds[mi][r] / layer->seconds[0][r]);
      }
      const double median = bench::quantile(ratios, 0.5);
      if (m == Mode::kCounters) worst_ratio = std::max(worst_ratio, median);
      auto ratio = [](double x) {
        char buf[16];
        std::snprintf(buf, sizeof buf, "%.3fx", x);
        return std::string(buf);
      };
      const double median_ms = bench::quantile(layer->seconds[mi], 0.5) * 1e3;
      t.add_row({mi == 0 ? name : "", mode_name(m),
                 TextTable::fixed(median_ms, 2) + " ms",
                 ratio(bench::quantile(ratios, 0.25)), ratio(median),
                 ratio(bench::quantile(ratios, 0.75))});
      identical = identical && layer->check[mi] == layer->check[0];
    }
  }
  std::printf("%s", t.render().c_str());
  std::printf("\nenergy results across modes: %s\n",
              identical ? "bit-identical" : "MISMATCH");

  bool shape_ok = identical;
#if defined(__OPTIMIZE__)
  const bool cheap = worst_ratio <= 1.02;
  std::printf("overhead gate (median per-round counters/disabled <=1.02x, "
              "both layers): worst %.3fx -> %s\n",
              worst_ratio, cheap ? "ok" : "TOO SLOW");
  shape_ok = shape_ok && cheap;
#else
  std::printf("overhead gate skipped: unoptimized build (bit-identity still "
              "enforced; worst median counters ratio %.3fx)\n",
              worst_ratio);
#endif

  std::printf("\nSHAPE CHECK: %s\n", shape_ok ? "PASS" : "FAIL");
  return shape_ok ? 0 : 1;
}
