// Fault-injection tests for the out-of-process hardware estimator worker.
//
// A dead worker is never replaced: the proxy replays its request log into an
// in-process dist::Worker, which then serves every later request. The run
// must stay BIT-identical to a plain in-process run (EXPECT_EQ on doubles)
// because replay drives the same frame stream through the same Worker code —
// these tests SIGKILL the worker mid-run via the debug hook and check
// exactly that, plus the telemetry counters that make the degradation
// observable.
#include <gtest/gtest.h>

#include <string>

#include "core/coestimator.hpp"
#include "dist/remote_hw_estimator.hpp"
#include "dist/wire.hpp"
#include "systems/tcpip.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/telemetry.hpp"

namespace socpower::dist {
namespace {

systems::TcpIpParams gate_params() {
  systems::TcpIpParams p;
  p.num_packets = 4;
  p.packet_bytes = 64;
  p.ip_check_in_hw = true;
  p.seed = 7;
  return p;
}

core::CoEstimatorConfig remote_config() {
  core::CoEstimatorConfig cfg;
  cfg.hw_remote = true;
  cfg.dist_flush_chunk = 3;  // tiny: many chunk slices even on a small run
  return cfg;
}

/// The remote hw_gate backend of `est`. backends() hands out const
/// pointers; the fault-injection hook is inherently non-const, hence the
/// const_cast (test-only).
RemoteHwEstimator* find_remote(const core::CoEstimator& est) {
  for (const core::ComponentEstimator* b : est.backends())
    if (auto* r = dynamic_cast<const RemoteHwEstimator*>(b))
      return const_cast<RemoteHwEstimator*>(r);
  return nullptr;
}

void expect_bit_identical(const core::RunResults& a,
                          const core::RunResults& b) {
  EXPECT_EQ(a.total_energy, b.total_energy);
  EXPECT_EQ(a.cpu_energy, b.cpu_energy);
  EXPECT_EQ(a.hw_energy, b.hw_energy);
  EXPECT_EQ(a.bus_energy, b.bus_energy);
  EXPECT_EQ(a.cache_energy, b.cache_energy);
  EXPECT_EQ(a.process_energy, b.process_energy);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.reactions, b.reactions);
  EXPECT_EQ(a.gate_sim_cycles, b.gate_sim_cycles);
  EXPECT_EQ(a.cache_hits_served, b.cache_hits_served);
  EXPECT_EQ(a.bus_totals.transfers, b.bus_totals.transfers);
}

core::RunResults baseline_run() {
  systems::TcpIpSystem sys(gate_params());
  core::CoEstimator est(&sys.network(), core::CoEstimatorConfig{});
  sys.configure(est);
  est.prepare();
  return est.run(sys.stimulus());
}

class TelemetryOn {
 public:
  TelemetryOn() { telemetry::set_enabled(true, false); }
  ~TelemetryOn() { telemetry::set_enabled(false, false); }
};

TEST(DistRemote, KillAllWorkersMidRunFallsBackBitIdentical) {
  if (!supported()) GTEST_SKIP() << "no fork/socketpair";
  const core::RunResults want = baseline_run();

  TelemetryOn telem;
  auto& reg = telemetry::registry();
  telemetry::Counter& global_fallbacks = reg.counter("dist.fallbacks");
  telemetry::Counter& fallbacks =
      reg.counter("estimator.hw.gate.remote.dist.fallbacks");
  const std::uint64_t global_before = global_fallbacks.value();
  const std::uint64_t before = fallbacks.value();

  systems::TcpIpSystem sys(gate_params());
  core::CoEstimator est(&sys.network(), remote_config());
  sys.configure(est);
  est.prepare();
  RemoteHwEstimator* remote = find_remote(est);
  ASSERT_NE(remote, nullptr);
  ASSERT_TRUE(remote->remote_active());

  // SIGKILL the worker a few transitions in: the next RPC hits a dead
  // socket and the in-process fallback replays the log. The run must not
  // notice.
  int transitions = 0;
  est.set_transition_hook([&](const core::TransitionRecord&) {
    if (++transitions == 10) remote->debug_kill_worker();
  });
  const core::RunResults got = est.run(sys.stimulus());
  EXPECT_GE(transitions, 10);

  expect_bit_identical(got, want);
  EXPECT_FALSE(remote->remote_active());
  EXPECT_GE(fallbacks.value(), before + 1);
  EXPECT_GE(global_fallbacks.value(), global_before + 1);
}

TEST(DistRemote, SecondRunAfterFallbackStillMatches) {
  if (!supported()) GTEST_SKIP() << "no fork/socketpair";
  const core::RunResults want = baseline_run();

  TelemetryOn telem;
  telemetry::Counter& global_fallbacks =
      telemetry::registry().counter("dist.fallbacks");
  const std::uint64_t global_before = global_fallbacks.value();

  systems::TcpIpSystem sys(gate_params());
  core::CoEstimator est(&sys.network(), remote_config());
  sys.configure(est);
  est.prepare();
  RemoteHwEstimator* remote = find_remote(est);
  ASSERT_NE(remote, nullptr);

  int transitions = 0;
  est.set_transition_hook([&](const core::TransitionRecord&) {
    if (++transitions == 25) remote->debug_kill_worker();
  });
  expect_bit_identical(est.run(sys.stimulus()), want);
  // Once degraded, later runs ride the in-process fallback permanently —
  // begin_run() compaction must keep working there too.
  expect_bit_identical(est.run(sys.stimulus()), want);
  EXPECT_FALSE(remote->remote_active());
  EXPECT_GE(global_fallbacks.value(), global_before + 1);
}

TEST(DistRemote, RpcTelemetryCounts) {
  if (!supported()) GTEST_SKIP() << "no fork/socketpair";
  TelemetryOn telem;
  auto& reg = telemetry::registry();
  telemetry::Counter& rpcs = reg.counter("estimator.hw.gate.remote.dist.rpcs");
  telemetry::Counter& tx =
      reg.counter("estimator.hw.gate.remote.dist.bytes_tx");
  telemetry::Counter& rx =
      reg.counter("estimator.hw.gate.remote.dist.bytes_rx");
  const std::uint64_t rpcs0 = rpcs.value(), tx0 = tx.value(),
                      rx0 = rx.value();

  systems::TcpIpSystem sys(gate_params());
  core::CoEstimator est(&sys.network(), remote_config());
  sys.configure(est);
  est.prepare();
  (void)est.run(sys.stimulus());

  EXPECT_GT(rpcs.value(), rpcs0);
  EXPECT_GT(tx.value(), tx0);
  EXPECT_GT(rx.value(), rx0);
}

}  // namespace
}  // namespace socpower::dist
