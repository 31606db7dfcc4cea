// Multicore co-estimation: the N-core scenario family end to end.
//
// Covers the determinism matrix the single-CPU suites pin for the original
// systems — bit-identical results across hw_flush_threads 1 vs 4, serial
// vs threaded explore(), reaction cache on vs off — plus the
// multicore-only contracts: per-core mapping aborts on an out-of-range
// core, NoC/coherence configs are validated before prepare(), the serve
// daemon hosts multicore sessions (and rejects structurally under-cored
// requests with an error instead of dying), and the ISSUE's acceptance
// criterion that a >= 2-core scenario's separate-estimation error exceeds
// the single-CPU producer/consumer system's.
#include <gtest/gtest.h>

#include <cmath>
#include <mutex>
#include <string>
#include <vector>

#include "core/estimators/hw_estimator.hpp"
#include "core/explorer.hpp"
#include "dist/wire.hpp"
#include "hwsyn/design.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "systems/multicore.hpp"
#include "systems/prodcons.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/telemetry.hpp"

namespace socpower {
namespace {

core::RunResults run_multicore(const systems::MulticoreParams& params,
                               core::CoEstimatorConfig cfg_overrides,
                               sim::SimTime horizon = 4096,
                               bool separate = false) {
  systems::MulticoreSystem sys(params);
  core::CoEstimatorConfig cfg = sys.config_template();
  // Per-run knobs ride in via the overrides; structural fields come from
  // the template.
  cfg.accel = cfg_overrides.accel;
  cfg.hw_batch = cfg_overrides.hw_batch;
  cfg.hw_flush_threads = cfg_overrides.hw_flush_threads;
  cfg.hw_reaction_cache = cfg_overrides.hw_reaction_cache;
  core::CoEstimator est(&sys.network(), cfg);
  sys.configure(est);
  est.prepare();
  return separate ? est.run_separate(sys.stimulus(horizon))
                  : est.run(sys.stimulus(horizon));
}

void expect_bit_identical(const core::RunResults& a,
                          const core::RunResults& b) {
  EXPECT_EQ(a.total_energy, b.total_energy);
  EXPECT_EQ(a.cpu_energy, b.cpu_energy);
  EXPECT_EQ(a.hw_energy, b.hw_energy);
  EXPECT_EQ(a.bus_energy, b.bus_energy);
  EXPECT_EQ(a.cache_energy, b.cache_energy);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.reactions, b.reactions);
  EXPECT_EQ(a.iss_instructions, b.iss_instructions);
  EXPECT_EQ(a.bus_totals.transfers, b.bus_totals.transfers);
  EXPECT_EQ(a.bus_totals.energy, b.bus_totals.energy);
  EXPECT_EQ(a.coherence.accesses, b.coherence.accesses);
  EXPECT_EQ(a.coherence.invalidations, b.coherence.invalidations);
  EXPECT_EQ(a.coherence.writebacks, b.coherence.writebacks);
  EXPECT_EQ(a.coherence.energy, b.coherence.energy);
}

TEST(Multicore, RunsAndTouchesEverySubsystem) {
  const core::RunResults res =
      run_multicore({.cores = 4, .num_packets = 4}, {});
  EXPECT_GT(res.total_energy, 0.0);
  EXPECT_GT(res.sw_reactions, 0u);
  EXPECT_GT(res.hw_reactions, 0u);
  EXPECT_GT(res.iss_instructions, 0u);
  // The shared result buffer is written by every worker, so with coherence
  // on the lines ping-pong: real invalidations and real writebacks.
  EXPECT_GT(res.coherence.accesses, 0u);
  EXPECT_GT(res.coherence.invalidations, 0u);
  EXPECT_GT(res.coherence.writebacks, 0u);
  EXPECT_GT(res.coherence.energy, 0.0);
  // Coherence control traffic rides the interconnect.
  EXPECT_GT(res.bus_totals.transfers, 0u);
  EXPECT_GT(res.bus_totals.energy, 0.0);
}

TEST(Multicore, NocInterconnectRunsAndBillsLinkEnergy) {
  const core::RunResults bus = run_multicore(
      {.cores = 4, .num_packets = 4,
       .interconnect = core::InterconnectKind::kBus}, {});
  telemetry::set_enabled(true, false);
  const core::RunResults noc = run_multicore(
      {.cores = 4, .num_packets = 4,
       .interconnect = core::InterconnectKind::kNoc}, {});
  telemetry::set_enabled(false, false);
  EXPECT_GT(noc.bus_totals.transfers, 0u);
  EXPECT_GT(noc.bus_totals.energy, 0.0);
  // Same workload, same coherence protocol — the interconnect swap changes
  // energy/latency, not what traffic exists.
  EXPECT_EQ(noc.coherence.accesses, bus.coherence.accesses);
  EXPECT_NE(noc.bus_totals.energy, bus.bus_totals.energy);
  // Per-link telemetry: at least one "estimator.bus.noc.link.<a>-><b>.flits"
  // counter recorded traffic.
  bool saw_link_counter = false;
  for (const auto& c : telemetry::registry().snapshot().counters)
    if (c.name.rfind("estimator.bus.noc.link.", 0) == 0 && c.value > 0)
      saw_link_counter = true;
  EXPECT_TRUE(saw_link_counter);
}

TEST(Multicore, DeterministicAcrossHwFlushThreads) {
  for (const unsigned cores : {2u, 4u}) {
    SCOPED_TRACE(cores);
    core::CoEstimatorConfig t1, t4;
    t1.hw_batch = t4.hw_batch = true;
    t1.hw_flush_threads = 1;
    t4.hw_flush_threads = 4;
    const core::RunResults a = run_multicore({.cores = cores}, t1);
    const core::RunResults b = run_multicore({.cores = cores}, t4);
    expect_bit_identical(a, b);
  }
}

TEST(Multicore, DeterministicAcrossReactionCacheOnOff) {
  core::CoEstimatorConfig on, off;
  on.hw_reaction_cache = true;
  off.hw_reaction_cache = false;
  const core::RunResults a = run_multicore({.cores = 3}, on);
  const core::RunResults b = run_multicore({.cores = 3}, off);
  expect_bit_identical(a, b);
}

TEST(Multicore, RepeatedRunsBitIdentical) {
  const core::RunResults a = run_multicore({.cores = 2}, {});
  const core::RunResults b = run_multicore({.cores = 2}, {});
  expect_bit_identical(a, b);
}

/// Design points sweeping the core count and interconnect — the multicore
/// family reachable through core::explore.
std::vector<core::ExplorationPoint> multicore_points() {
  std::vector<core::ExplorationPoint> pts;
  for (const unsigned cores : {1u, 2u, 4u}) {
    for (const core::InterconnectKind ic :
         {core::InterconnectKind::kBus, core::InterconnectKind::kNoc}) {
      auto make_run = [cores, ic](bool exact) {
        return [cores, ic, exact] {
          systems::MulticoreSystem sys(
              {.cores = cores, .num_packets = 3, .interconnect = ic});
          core::CoEstimatorConfig cfg = sys.config_template();
          if (!exact) cfg.accel = core::Acceleration::kCaching;
          core::CoEstimator est(&sys.network(), cfg);
          sys.configure(est);
          est.prepare();
          return est.run(sys.stimulus(4096));
        };
      };
      core::ExplorationPoint p;
      p.label = "cores=" + std::to_string(cores) + "/" +
                core::interconnect_name(ic);
      p.run_coarse = make_run(false);
      p.run_exact = make_run(true);
      pts.push_back(std::move(p));
    }
  }
  return pts;
}

/// The points sharded over three pool threads reduce to the serial outcome.
TEST(MulticoreExplore, ShardedMatchesSerial) {
  const auto pts = multicore_points();
  const core::ExplorationOutcome serial = core::explore(pts, 2);
  const core::ExplorationOutcome threaded =
      core::explore(pts, 2, {.threads = 3});
  ASSERT_EQ(serial.ranked.size(), threaded.ranked.size());
  for (std::size_t i = 0; i < serial.ranked.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(serial.ranked[i].label, threaded.ranked[i].label);
    EXPECT_EQ(serial.ranked[i].coarse_energy, threaded.ranked[i].coarse_energy);
    EXPECT_EQ(serial.ranked[i].exact_energy, threaded.ranked[i].exact_energy);
  }
  EXPECT_EQ(serial.winner_confirmed, threaded.winner_confirmed);
  EXPECT_EQ(serial.verification_correlation,
            threaded.verification_correlation);
}

/// Gate-level steps of hardware estimators, and how many of them replayed
/// a memoized reaction.
struct GateStepCount {
  std::mutex mu;
  std::uint64_t hits = 0;
  std::uint64_t steps = 0;

  void add(const core::CoEstimator& est) {
    std::lock_guard<std::mutex> lk(mu);
    for (const core::ComponentEstimator* b : est.backends())
      if (const auto* hb = dynamic_cast<const core::HwEstimatorBase*>(b)) {
        const hw::ReactionCacheStats s = hb->reaction_cache_stats();
        hits += s.hits;
        steps += s.hits + s.misses + s.bypassed;
      }
  }
};

/// 4-core points on bus and NoC, over two shared-line counts and two start
/// gaps each.
std::vector<core::ExplorationPoint> four_core_points(bool reaction_cache,
                                                     GateStepCount* count) {
  std::vector<core::ExplorationPoint> pts;
  for (const core::InterconnectKind ic :
       {core::InterconnectKind::kBus, core::InterconnectKind::kNoc}) {
    for (const unsigned lines : {1u, 4u}) {
      for (const sim::SimTime gap : {2, 8}) {
        auto make_run = [=](bool exact) {
          return [=] {
            systems::MulticoreSystem sys({.cores = 4,
                                          .num_packets = 3,
                                          .start_gap = gap,
                                          .interconnect = ic,
                                          .shared_lines = lines});
            core::CoEstimatorConfig cfg = sys.config_template();
            if (!exact) cfg.accel = core::Acceleration::kCaching;
            cfg.hw_reaction_cache = reaction_cache;
            core::CoEstimator est(&sys.network(), cfg);
            sys.configure(est);
            est.prepare();
            const core::RunResults r = est.run(sys.stimulus(4096));
            if (count) count->add(est);
            return r;
          };
        };
        core::ExplorationPoint p;
        p.label = std::string(core::interconnect_name(ic)) + "/l" +
                  std::to_string(lines) + "/g" + std::to_string(gap);
        p.run_coarse = make_run(false);
        p.run_exact = make_run(true);
        pts.push_back(std::move(p));
      }
    }
  }
  return pts;
}

/// Every estimator of a design shares its reaction table, so one explore()
/// from cold tables replays most gate-level reactions: later points and the
/// exact tier meet the states earlier points evaluated. The ranking stays
/// bit-identical to the same explore with the cache off.
TEST(MulticoreExplore, OneColdExploreReplaysMostGateSteps) {
  {
    systems::MulticoreSystem sys({.cores = 4});
    core::CoEstimator est(&sys.network(), sys.config_template());
    sys.configure(est);
    est.prepare();
    for (const core::ComponentEstimator* b : est.backends())
      for (const cfsm::CfsmId task : b->component_ids())
        if (dynamic_cast<const core::HwEstimatorBase*>(b))
          hwsyn::shared_design(sys.network().cfsm(task),
                               est.config().electrical)
              ->reactions->clear();
  }
  GateStepCount count;
  const core::ExplorationOutcome on =
      core::explore(four_core_points(true, &count), 3);
  const core::ExplorationOutcome off =
      core::explore(four_core_points(false, nullptr), 3);
  ASSERT_GT(count.steps, 0u);
  EXPECT_GE(2 * count.hits, count.steps)
      << count.hits << " hits in " << count.steps << " gate steps";
  ASSERT_EQ(on.ranked.size(), off.ranked.size());
  for (std::size_t i = 0; i < on.ranked.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(on.ranked[i].label, off.ranked[i].label);
    EXPECT_EQ(on.ranked[i].coarse_energy, off.ranked[i].coarse_energy);
    EXPECT_EQ(on.ranked[i].exact_energy, off.ranked[i].exact_energy);
  }
  EXPECT_EQ(on.winner_confirmed, off.winner_confirmed);
}

TEST(Multicore, SeparateErrorExceedsSingleCpuScenario) {
  // The ISSUE's acceptance criterion: a >= 2-core scenario's
  // separate-estimation error (vs co-estimation) is strictly larger than a
  // single-CPU scenario's. Timing feedback compounds: with N interleaved
  // DONE streams the collector's timing-dependent workload drifts further
  // when interconnect/coherence stalls are ignored.
  auto rel_error = [](const core::RunResults& co,
                      const core::RunResults& sep) {
    return std::fabs(sep.total_energy - co.total_energy) / co.total_energy;
  };
  systems::ProdConsSystem pc({.num_packets = 6});
  core::CoEstimatorConfig pc_cfg;
  double single_err = 0.0;
  {
    core::CoEstimator est(&pc.network(), pc_cfg);
    pc.configure(est);
    est.prepare();
    const core::RunResults co = est.run(pc.stimulus(8192));
    const core::RunResults sep = est.run_separate(pc.stimulus(8192));
    single_err = rel_error(co, sep);
  }
  const systems::MulticoreParams mp{.cores = 4, .num_packets = 6};
  const core::RunResults co = run_multicore(mp, {}, 8192, false);
  const core::RunResults sep = run_multicore(mp, {}, 8192, true);
  const double multi_err = rel_error(co, sep);
  EXPECT_GT(multi_err, single_err)
      << "multicore separate error " << multi_err
      << " should exceed single-CPU " << single_err;
}

using MulticoreDeathTest = ::testing::Test;

TEST(MulticoreDeathTest, MapSwAbortsOnOutOfRangeCore) {
  systems::MulticoreSystem sys({.cores = 2});
  core::CoEstimatorConfig cfg = sys.config_template();
  core::CoEstimator est(&sys.network(), cfg);
  EXPECT_DEATH(est.map_sw(sys.workers()[0], /*core=*/2, /*rtos_priority=*/1),
               "out of range");
}

TEST(MulticoreDeathTest, PrepareAbortsOnNonPositiveNocLinkCap) {
  systems::MulticoreSystem sys(
      {.cores = 2, .interconnect = core::InterconnectKind::kNoc});
  core::CoEstimatorConfig cfg = sys.config_template();
  cfg.noc.link_cap_f = 0.0;
  EXPECT_FALSE(cfg.validate().empty());
  core::CoEstimator est(&sys.network(), cfg);
  sys.configure(est);
  EXPECT_DEATH(est.prepare(), "link_cap_f");
}

TEST(MulticoreDeathTest, PrepareAbortsOnZeroCores) {
  systems::MulticoreSystem sys({.cores = 1});
  core::CoEstimatorConfig cfg = sys.config_template();
  cfg.cores = 0;
  EXPECT_FALSE(cfg.validate().empty());
  core::CoEstimator est(&sys.network(), cfg);
  EXPECT_DEATH(est.prepare(), "cores");
}

class MulticoreServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!dist::supported()) GTEST_SKIP() << "no fork/socketpair";
    serve::ServerConfig cfg;
    cfg.socket_path = ::testing::TempDir() + "socpower_multicore_" +
                      std::to_string(::getpid()) + ".sock";
    cfg.threads = 2;
    server_ = std::make_unique<serve::Server>(cfg);
    ASSERT_TRUE(server_->start());
  }
  void TearDown() override {
    if (server_) server_->stop();
  }
  std::unique_ptr<serve::Server> server_;
};

TEST_F(MulticoreServeTest, MulticoreSessionMatchesInProcessRun) {
  std::string error;
  serve::Client client =
      serve::Client::connect(server_->socket_path(), &error);
  ASSERT_TRUE(client.valid()) << error;

  // The served session must run on the system's own config template: from
  // 4 cores on, the NoC mesh is larger than the default 2x2 one.
  for (const core::InterconnectKind ic :
       {core::InterconnectKind::kBus, core::InterconnectKind::kNoc}) {
    for (const unsigned cores : {3u, 4u, 6u}) {
      SCOPED_TRACE(std::string(core::interconnect_name(ic)) + " x " +
                   std::to_string(cores) + " cores");
      const systems::MulticoreParams mp{
          .cores = cores, .num_packets = 4, .interconnect = ic};
      systems::MulticoreSystem ref_sys(mp);
      core::CoEstimator ref(&ref_sys.network(), ref_sys.config_template());
      ref_sys.configure(ref);
      ref.prepare();
      const core::RunResults want = ref.run(ref_sys.stimulus(4096));

      serve::SystemParams sp;
      sp.name = "multicore";
      sp.set("cores", cores);
      sp.set("num_packets", 4);
      sp.set("horizon", 4096);
      const serve::StructuralConfig structural =
          serve::StructuralConfig::from(ref_sys.config_template());
      std::string key;
      ASSERT_TRUE(client.open_session(sp, structural, &key, nullptr, &error))
          << error;
      core::RunResults got;
      ASSERT_TRUE(client.estimate(key, serve::RunRequest{}, &got, nullptr,
                                  &error))
          << error;
      expect_bit_identical(want, got);
    }
  }
}

TEST_F(MulticoreServeTest, UnderCoredStructuralConfigIsRejectedNotFatal) {
  std::string error;
  serve::Client client =
      serve::Client::connect(server_->socket_path(), &error);
  ASSERT_TRUE(client.valid()) << error;

  serve::SystemParams sp;
  sp.name = "multicore";
  sp.set("cores", 4);
  // Default structural config has cores = 1: the 4-worker system cannot map
  // onto it. map_sw would abort the process — the server must refuse first.
  EXPECT_FALSE(client.open_session(sp, serve::StructuralConfig{}, nullptr,
                                   nullptr, &error));
  EXPECT_NE(error.find("at least 4 cores"), std::string::npos) << error;
  // The server survived; a well-formed request still works.
  systems::MulticoreSystem sys({.cores = 4});
  const serve::StructuralConfig good =
      serve::StructuralConfig::from(sys.config_template());
  std::string key;
  EXPECT_TRUE(client.open_session(sp, good, &key, nullptr, &error)) << error;
}

}  // namespace
}  // namespace socpower
