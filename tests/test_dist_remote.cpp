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

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/coestimator.hpp"
#include "core/estimators/hw_estimator.hpp"
#include "dist/remote_hw_estimator.hpp"
#include "dist/wire.hpp"
#include "hw/reaction_cache.hpp"
#include "hwsyn/design.hpp"
#include "systems/tcpip.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"

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

TEST(DistRemote, WorkersForkedWhileTheSharedTableInsertsStayRemote) {
  // A forked worker steps its units over reaction tables of its own. The
  // designs' shared tables take a mutex on every insert, and a child forked
  // while another thread held it would inherit it held: its first miss
  // would block until the RPC timeout and the proxy would fall back to
  // in-process. Two threads keep inserting fresh reactions into the shared
  // tables while remote estimators fork one after another; every worker
  // must stay remote and every run must match the in-process one.
  if (!supported()) GTEST_SKIP() << "no fork/socketpair";
  const core::RunResults want = baseline_run();
  systems::TcpIpSystem sys(gate_params());
  std::vector<std::shared_ptr<const hwsyn::HwDesign>> designs;
  {
    core::CoEstimator est(&sys.network(), core::CoEstimatorConfig{});
    sys.configure(est);
    est.prepare();
    for (const core::ComponentEstimator* b : est.backends())
      if (dynamic_cast<const core::HwEstimatorBase*>(b))
        for (const cfsm::CfsmId task : b->component_ids())
          designs.push_back(hwsyn::shared_design(sys.network().cfsm(task),
                                                 est.config().electrical));
  }
  ASSERT_FALSE(designs.empty());

  std::atomic<bool> stop{false};
  auto insert_misses = [&](std::uint64_t seed) {
    Rng rng(seed);
    std::vector<std::unique_ptr<hw::GateSim>> sims;
    std::vector<std::unique_ptr<hw::ReactionCache>> views;
    for (const auto& d : designs) {
      sims.push_back(hwsyn::make_gate_sim(d));
      views.push_back(std::make_unique<hw::ReactionCache>(
          sims.back().get(), hw::ReactionCacheConfig{}, d->reactions));
    }
    while (!stop.load(std::memory_order_relaxed))
      for (std::size_t i = 0; i < sims.size(); ++i) {
        const std::size_t n = sims[i]->netlist().primary_inputs().size();
        for (std::size_t pi = 0; pi < n; ++pi)
          sims[i]->set_input(pi, rng.chance(0.5));
        (void)views[i]->step();
      }
  };
  std::thread first(insert_misses, 1);
  std::thread second(insert_misses, 2);
  for (int i = 0; i < 6; ++i) {
    core::CoEstimator est(&sys.network(), remote_config());
    sys.configure(est);
    est.prepare();
    const RemoteHwEstimator* remote = find_remote(est);
    EXPECT_NE(remote, nullptr);
    if (!remote) break;
    expect_bit_identical(est.run(sys.stimulus()), want);
    EXPECT_TRUE(remote->remote_active()) << "worker " << i;
  }
  stop.store(true, std::memory_order_relaxed);
  first.join();
  second.join();
}

}  // namespace
}  // namespace socpower::dist
