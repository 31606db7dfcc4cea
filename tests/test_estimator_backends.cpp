// The pluggable-backend seams: EstimatorRegistry lookup/registration,
// CoEstimatorConfig::validate() rejection paths, the structural-mutation
// guard, and the backends() introspection of a prepared estimator.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/coestimator.hpp"
#include "core/estimators/registry.hpp"
#include "core/estimators/sw_iss_estimator.hpp"
#include "systems/tcpip.hpp"

namespace socpower::core {
namespace {

systems::TcpIpParams small_params() {
  systems::TcpIpParams p;
  p.num_packets = 2;
  p.packet_bytes = 32;
  p.ip_check_in_hw = true;
  p.seed = 11;
  return p;
}

bool contains_substr(const std::vector<std::string>& errs,
                     const std::string& needle) {
  return std::any_of(errs.begin(), errs.end(), [&](const std::string& e) {
    return e.find(needle) != std::string::npos;
  });
}

// ---- registry --------------------------------------------------------------

TEST(EstimatorBackends, RegistryHasBuiltins) {
  EstimatorRegistry& reg = estimator_registry();
  for (const char* name :
       {"sw.iss", "hw.gate", "hw.rtl", "cache.icache", "bus.arbiter"}) {
    EXPECT_TRUE(reg.contains(name)) << name;
    auto backend = reg.create(name);
    ASSERT_NE(backend, nullptr) << name;
    EXPECT_EQ(backend->name(), name);
  }
  const std::vector<std::string> names = reg.names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_NE(reg.joined_names().find("sw.iss"), std::string::npos);
}

TEST(EstimatorBackends, RegistryUnknownNameIsNull) {
  EXPECT_FALSE(estimator_registry().contains("sw.nope"));
  EXPECT_EQ(estimator_registry().create("sw.nope"), nullptr);
}

TEST(EstimatorBackends, CustomRegistrationSelectsByName) {
  // An alternate software backend plugs in by name only; here it is the
  // stock ISS under an alias, so results must match the default selection
  // exactly.
  estimator_registry().register_backend(
      "test.sw.alias", [] { return std::make_unique<SwIssEstimator>(); });
  ASSERT_TRUE(estimator_registry().contains("test.sw.alias"));

  RunResults base, aliased;
  {
    systems::TcpIpSystem sys(small_params());
    CoEstimator est(&sys.network());
    sys.configure(est);
    est.prepare();
    base = est.run(sys.stimulus());
  }
  {
    systems::TcpIpSystem sys(small_params());
    CoEstimatorConfig cfg;
    cfg.estimators.sw = "test.sw.alias";
    CoEstimator est(&sys.network(), cfg);
    sys.configure(est);
    est.prepare();
    aliased = est.run(sys.stimulus());
  }
  EXPECT_EQ(aliased.total_energy, base.total_energy);
  EXPECT_EQ(aliased.cpu_energy, base.cpu_energy);
  EXPECT_EQ(aliased.end_time, base.end_time);
  EXPECT_EQ(aliased.iss_invocations, base.iss_invocations);
  EXPECT_EQ(aliased.iss_instructions, base.iss_instructions);
}

TEST(EstimatorBackends, ReRegistrationReplacesFactory) {
  int calls = 0;
  estimator_registry().register_backend("test.counted", [&calls] {
    ++calls;
    return std::make_unique<SwIssEstimator>();
  });
  (void)estimator_registry().create("test.counted");
  EXPECT_EQ(calls, 1);
  estimator_registry().register_backend(
      "test.counted", [] { return std::make_unique<SwIssEstimator>(); });
  (void)estimator_registry().create("test.counted");
  EXPECT_EQ(calls, 1);  // replaced factory no longer runs the old lambda
}

// ---- config validation -----------------------------------------------------

TEST(EstimatorBackends, ValidateAcceptsDefaults) {
  EXPECT_TRUE(CoEstimatorConfig{}.validate().empty());
}

TEST(EstimatorBackends, ValidateRejectsBadElectricals) {
  CoEstimatorConfig cfg;
  cfg.electrical.vdd_volts = 0.0;
  cfg.data_nj_per_toggle = -1.0;
  const auto errs = cfg.validate();
  EXPECT_TRUE(contains_substr(errs, "vdd_volts"));
  EXPECT_TRUE(contains_substr(errs, "data_nj_per_toggle"));
}

TEST(EstimatorBackends, ValidateRejectsZeroWidthBus) {
  CoEstimatorConfig cfg;
  cfg.bus.data_bits = 0;
  cfg.bus.addr_bits = 0;
  const auto errs = cfg.validate();
  EXPECT_TRUE(contains_substr(errs, "bus.data_bits"));
  EXPECT_TRUE(contains_substr(errs, "bus.addr_bits"));
}

TEST(EstimatorBackends, ValidateRejectsBadIssAndCache) {
  CoEstimatorConfig cfg;
  cfg.iss.memory_bytes = 0;
  cfg.icache.size_bytes = 0;
  const auto errs = cfg.validate();
  EXPECT_TRUE(contains_substr(errs, "iss.memory_bytes"));
  EXPECT_TRUE(contains_substr(errs, "icache geometry"));
}

TEST(EstimatorBackends, ValidateRejectsBadSampling) {
  CoEstimatorConfig cfg;
  cfg.sampling.keep_ratio = 0.0;
  cfg.sampling.k_memory = 0;
  const auto errs = cfg.validate();
  EXPECT_TRUE(contains_substr(errs, "keep_ratio"));
  EXPECT_TRUE(contains_substr(errs, "k_memory"));
}

TEST(EstimatorBackends, ValidateRejectsDeadFlushParallelism) {
  CoEstimatorConfig cfg;
  cfg.hw_batch = false;
  cfg.hw_flush_threads = 4;
  EXPECT_TRUE(contains_substr(cfg.validate(), "hw_flush_threads"));
  cfg.hw_batch = true;
  EXPECT_TRUE(cfg.validate().empty());
}

TEST(EstimatorBackends, ValidateRejectsUnknownBackendName) {
  CoEstimatorConfig cfg;
  cfg.estimators.cache = "cache.imaginary";
  const auto errs = cfg.validate();
  EXPECT_TRUE(contains_substr(errs, "cache.imaginary"));
  EXPECT_TRUE(contains_substr(errs, "cache.icache"));  // known-name list
}

// ---- prepare()/run() enforcement (aborts fire in every build type) ---------

using EstimatorBackendsDeathTest = ::testing::Test;

TEST(EstimatorBackendsDeathTest, PrepareAbortsOnInvalidConfig) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  systems::TcpIpSystem sys(small_params());
  CoEstimatorConfig cfg;
  cfg.bus.data_bits = 0;
  CoEstimator est(&sys.network(), cfg);
  sys.configure(est);
  EXPECT_DEATH(est.prepare(), "invalid config");
}

TEST(EstimatorBackendsDeathTest, PrepareAbortsOnUnknownBackend) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  systems::TcpIpSystem sys(small_params());
  CoEstimatorConfig cfg;
  cfg.estimators.sw = "sw.remote-iss";
  CoEstimator est(&sys.network(), cfg);
  sys.configure(est);
  EXPECT_DEATH(est.prepare(), "not registered");
}

TEST(EstimatorBackendsDeathTest, StructuralMutationAfterPrepareAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  systems::TcpIpSystem sys(small_params());
  CoEstimator est(&sys.network());
  sys.configure(est);
  est.prepare();
  est.config().iss.memory_bytes *= 2;  // structural: baked into the ISS
  EXPECT_DEATH(est.run(sys.stimulus()), "structural");
}

TEST(EstimatorBackendsDeathTest, CoherenceFlipAfterPrepareAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  systems::TcpIpSystem sys(small_params());
  CoEstimator est(&sys.network());
  sys.configure(est);
  est.prepare();
  est.config().coherence.enabled = !est.config().coherence.enabled;
  EXPECT_DEATH(est.run(sys.stimulus()), "coherence.enabled");
}

TEST(EstimatorBackendsDeathTest, BackendSwapAfterPrepareAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  systems::TcpIpSystem sys(small_params());
  CoEstimator est(&sys.network());
  sys.configure(est);
  est.prepare();
  est.config().estimators.hw_gate = "hw.rtl";
  EXPECT_DEATH(est.run(sys.stimulus()), "structural");
}

TEST(EstimatorBackends, PerRunKnobsStayMutable) {
  // The documented contract: everything outside the structural scope may
  // change between runs on the same instance.
  systems::TcpIpSystem sys(small_params());
  CoEstimator est(&sys.network());
  sys.configure(est);
  est.prepare();
  const RunResults plain = est.run(sys.stimulus());
  est.config().accel = Acceleration::kCaching;
  est.config().hw_flush_threads = 2;
  const RunResults cached = est.run(sys.stimulus());
  EXPECT_EQ(cached.total_energy, plain.total_energy);
  EXPECT_LE(cached.iss_invocations, plain.iss_invocations);
  est.config().accel = Acceleration::kNone;
  const RunResults again = est.run(sys.stimulus());
  EXPECT_EQ(again.iss_invocations, plain.iss_invocations);
}

// ---- knob scopes -----------------------------------------------------------
//
// The scopes are written out by hand here, independently of the knob table
// in coestimator_config.hpp, so a table edit that moves a knob between
// scopes (or drops one) fails a test instead of silently changing what is
// frozen at prepare() or what travels with a run.

struct KnobMutation {
  const char* name;
  void (*mutate)(CoEstimatorConfig&);
};

const KnobMutation kStructuralKnobs[] = {
    {"electrical.vdd_volts",
     [](CoEstimatorConfig& c) { c.electrical.vdd_volts += 1.0; }},
    {"electrical.clock_hz",
     [](CoEstimatorConfig& c) { c.electrical.clock_hz *= 2.0; }},
    {"iss.memory_bytes", [](CoEstimatorConfig& c) { c.iss.memory_bytes *= 2; }},
    {"iss.pipeline_fill_cycles",
     [](CoEstimatorConfig& c) { ++c.iss.pipeline_fill_cycles; }},
    {"iss.taken_branch_penalty",
     [](CoEstimatorConfig& c) { ++c.iss.taken_branch_penalty; }},
    {"iss.default_max_instructions",
     [](CoEstimatorConfig& c) { ++c.iss.default_max_instructions; }},
    {"iss.block_cache",
     [](CoEstimatorConfig& c) { c.iss.block_cache = !c.iss.block_cache; }},
    {"iss.block_cache_max_blocks",
     [](CoEstimatorConfig& c) { ++c.iss.block_cache_max_blocks; }},
    {"iss.block_cache_max_ops",
     [](CoEstimatorConfig& c) { ++c.iss.block_cache_max_ops; }},
    {"rtos.dispatch_cycles",
     [](CoEstimatorConfig& c) { ++c.rtos.dispatch_cycles; }},
    {"rtos.dispatch_current_ma",
     [](CoEstimatorConfig& c) { c.rtos.dispatch_current_ma += 1.0; }},
    {"data_nj_per_toggle",
     [](CoEstimatorConfig& c) { c.data_nj_per_toggle += 0.5; }},
    {"estimators.sw", [](CoEstimatorConfig& c) { c.estimators.sw += "x"; }},
    {"estimators.hw_gate",
     [](CoEstimatorConfig& c) { c.estimators.hw_gate += "x"; }},
    {"estimators.hw_rtl",
     [](CoEstimatorConfig& c) { c.estimators.hw_rtl += "x"; }},
    {"estimators.cache",
     [](CoEstimatorConfig& c) { c.estimators.cache += "x"; }},
    {"estimators.bus", [](CoEstimatorConfig& c) { c.estimators.bus += "x"; }},
    {"estimators.noc", [](CoEstimatorConfig& c) { c.estimators.noc += "x"; }},
    {"hw_remote", [](CoEstimatorConfig& c) { c.hw_remote = !c.hw_remote; }},
    {"cores", [](CoEstimatorConfig& c) { ++c.cores; }},
    {"interconnect",
     [](CoEstimatorConfig& c) { c.interconnect = InterconnectKind::kNoc; }},
    {"coherence.enabled",
     [](CoEstimatorConfig& c) { c.coherence.enabled = !c.coherence.enabled; }},
};

const KnobMutation kRunKnobs[] = {
    {"accel", [](CoEstimatorConfig& c) { c.accel = Acceleration::kSampling; }},
    {"verify_lowlevel",
     [](CoEstimatorConfig& c) { c.verify_lowlevel = !c.verify_lowlevel; }},
    {"accelerate_hw",
     [](CoEstimatorConfig& c) { c.accelerate_hw = !c.accelerate_hw; }},
    {"hw_batch", [](CoEstimatorConfig& c) { c.hw_batch = !c.hw_batch; }},
    {"hw_flush_threads", [](CoEstimatorConfig& c) { ++c.hw_flush_threads; }},
    {"hw_reaction_cache",
     [](CoEstimatorConfig& c) { c.hw_reaction_cache = !c.hw_reaction_cache; }},
    {"hw_reaction_cache_max_entries",
     [](CoEstimatorConfig& c) { ++c.hw_reaction_cache_max_entries; }},
    {"sync_spin", [](CoEstimatorConfig& c) { ++c.sync_spin; }},
    {"cache_hit_spin", [](CoEstimatorConfig& c) { ++c.cache_hit_spin; }},
    {"energy_cache.thresh_variance",
     [](CoEstimatorConfig& c) { c.energy_cache.thresh_variance += 0.5; }},
    {"energy_cache.thresh_iss_calls",
     [](CoEstimatorConfig& c) { ++c.energy_cache.thresh_iss_calls; }},
    {"max_reactions", [](CoEstimatorConfig& c) { ++c.max_reactions; }},
    {"hw_analytical_calibration_vectors",
     [](CoEstimatorConfig& c) { ++c.hw_analytical_calibration_vectors; }},
    {"hw_leakage_nw_per_gate",
     [](CoEstimatorConfig& c) { c.hw_leakage_nw_per_gate += 1.0; }},
    {"hw_temperature_k",
     [](CoEstimatorConfig& c) { c.hw_temperature_k += 1.0; }},
    {"hw_channel_length_nm",
     [](CoEstimatorConfig& c) { c.hw_channel_length_nm += 1.0; }},
};

TEST(EstimatorBackends, StructuralMismatchNamesEachStructuralKnob) {
  const CoEstimatorConfig base;
  for (const KnobMutation& k : kStructuralKnobs) {
    CoEstimatorConfig changed = base;
    k.mutate(changed);
    const char* got = structural_mismatch(changed, base);
    ASSERT_NE(got, nullptr) << k.name;
    EXPECT_STREQ(got, k.name);
  }
}

TEST(EstimatorBackends, RunKnobsAreNotStructural) {
  const CoEstimatorConfig base;
  for (const KnobMutation& k : kRunKnobs) {
    CoEstimatorConfig changed = base;
    k.mutate(changed);
    EXPECT_EQ(structural_mismatch(changed, base), nullptr) << k.name;
  }
}

TEST(EstimatorBackends, KnobTableMatchesTheHandWrittenScopes) {
  std::vector<std::string> structural, run;
  const CoEstimatorConfig cfg;
  for_each_knob(cfg, [&](const char* name, const auto&, KnobScope scope) {
    (scope == KnobScope::kStructural ? structural : run).emplace_back(name);
  });
  std::vector<std::string> want_structural, want_run;
  for (const KnobMutation& k : kStructuralKnobs)
    want_structural.emplace_back(k.name);
  for (const KnobMutation& k : kRunKnobs) want_run.emplace_back(k.name);
  EXPECT_EQ(structural, want_structural);
  EXPECT_EQ(run, want_run);
}

TEST(EstimatorBackends, CopyKnobsCopiesOnlyItsScope) {
  CoEstimatorConfig src;
  for (const KnobMutation& k : kStructuralKnobs) k.mutate(src);
  for (const KnobMutation& k : kRunKnobs) k.mutate(src);
  src.bus.data_bits *= 2;  // in neither scope: never copied

  CoEstimatorConfig run_only;
  copy_knobs(src, &run_only, KnobScope::kRun);
  EXPECT_EQ(structural_mismatch(run_only, CoEstimatorConfig{}), nullptr);
  EXPECT_EQ(run_only.accel, Acceleration::kSampling);
  EXPECT_EQ(run_only.hw_channel_length_nm, src.hw_channel_length_nm);

  CoEstimatorConfig structural_only;
  copy_knobs(src, &structural_only, KnobScope::kStructural);
  EXPECT_EQ(structural_mismatch(structural_only, src), nullptr);
  EXPECT_EQ(structural_only.accel, Acceleration::kNone);
  EXPECT_EQ(structural_only.bus.data_bits, CoEstimatorConfig{}.bus.data_bits);
}

// ---- introspection ---------------------------------------------------------

TEST(EstimatorBackends, BackendsListRolesAfterPrepare) {
  systems::TcpIpParams p = small_params();
  p.checksum_rtl_estimator = true;  // mixed: gate + RTL units present
  systems::TcpIpSystem sys(p);
  CoEstimator est(&sys.network());
  sys.configure(est);
  EXPECT_TRUE(est.backends().empty());  // built at prepare()
  est.prepare();
  std::vector<std::string> names;
  for (const ComponentEstimator* b : est.backends())
    names.emplace_back(b->name());
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"bus.arbiter", "cache.icache",
                                             "hw.gate", "hw.rtl", "sw.iss"}));
  // Process backends own disjoint, non-empty component sets; resource
  // backends own none.
  for (const ComponentEstimator* b : est.backends()) {
    const auto ids = b->component_ids();
    if (b->name() == "bus.arbiter" || b->name() == "cache.icache")
      EXPECT_TRUE(ids.empty()) << b->name();
    else
      EXPECT_FALSE(ids.empty()) << b->name();
  }
}

}  // namespace
}  // namespace socpower::core
