// The pluggable-backend seams: EstimatorRegistry lookup/registration,
// CoEstimatorConfig::validate() rejection paths, the structural-mutation
// guard, the backends() introspection of a prepared estimator, and the
// per-process sharing of hardware designs between estimators.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "cfsm/dsl.hpp"
#include "core/coestimator.hpp"
#include "core/estimators/hw_estimator.hpp"
#include "core/estimators/registry.hpp"
#include "core/estimators/sw_iss_estimator.hpp"
#include "core/explorer.hpp"
#include "hwsyn/design.hpp"
#include "systems/multicore.hpp"
#include "systems/tcpip.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"
#include "util/shared_builds.hpp"

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

TEST(EstimatorBackends, ValidateRejectsBusWidthsTheSchedulerCannotPack) {
  // Beats pack into one 32-bit data word and addresses are 32-bit; above
  // 8 bits a beat moves whole bytes.
  struct Case {
    unsigned addr_bits;
    unsigned data_bits;
    const char* field;
    const char* got;
  };
  for (const Case& c : {Case{8, 40, "bus.data_bits", "got 40"},
                        Case{8, 12, "bus.data_bits", "got 12"},
                        Case{33, 8, "bus.addr_bits", "got 33"}}) {
    CoEstimatorConfig cfg;
    cfg.bus.addr_bits = c.addr_bits;
    cfg.bus.data_bits = c.data_bits;
    const auto errs = cfg.validate();
    ASSERT_EQ(errs.size(), 1u) << c.got;
    EXPECT_TRUE(contains_substr(errs, c.field)) << c.got;
    EXPECT_TRUE(contains_substr(errs, c.got)) << c.got;
  }
  for (const unsigned bits : {16u, 24u, 32u}) {
    CoEstimatorConfig cfg;
    cfg.bus.addr_bits = 32;
    cfg.bus.data_bits = bits;
    EXPECT_TRUE(cfg.validate().empty()) << bits;
  }
}

TEST(EstimatorBackends, ValidateRejectsBadIcache) {
  CoEstimatorConfig cfg;
  cfg.icache.size_bytes = 0;
  const auto errs = cfg.validate();
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

TEST(EstimatorBackendsDeathTest, PrepareAbortsOnUnmappedProcess) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  systems::TcpIpSystem sys(small_params());
  CoEstimator est(&sys.network());
  // Map every process but the last; prepare() must name the one left over
  // in every build type (an unchecked one used to run as a gate-level ASIC
  // under NDEBUG).
  const std::size_t n = sys.network().cfsm_count();
  ASSERT_GE(n, 2u);
  for (std::size_t c = 0; c + 1 < n; ++c)
    est.map_hw(static_cast<cfsm::CfsmId>(c));
  const std::string name =
      sys.network().cfsm(static_cast<cfsm::CfsmId>(n - 1)).name();
  EXPECT_DEATH(est.prepare(), "process \"" + name + "\" is mapped to "
                              "neither software nor hardware");
}

TEST(EstimatorBackendsDeathTest, PrepareAbortsOnImageLargerThanTheIss) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // 8000 straight-line statements compile to more code words than the
  // default ISS memory holds. prepare() must refuse the image in every build
  // type, -DNDEBUG included, and name the process (Iss::load_program's own
  // refusal, IssDeathTest.LoadProgramAbortsOnImageLargerThanMemory, cannot).
  std::string src = "event GO;\nprocess big {\n  input GO;\n  var x = 0;\n";
  for (int i = 0; i < 8000; ++i) src += "  x = x + 3;\n";
  src += "}\n";
  cfsm::Network net;
  const cfsm::DslResult parsed = cfsm::parse_network(src, net);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  CoEstimator est(&net);
  est.map_sw(net.cfsm_id("big"), 1);
  EXPECT_DEATH(est.prepare(),
               "process \"big\" does not fit the ISS: [0-9]+ code words");
}

TEST(EstimatorBackendsDeathTest, StructuralMutationAfterPrepareAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  systems::TcpIpSystem sys(small_params());
  CoEstimator est(&sys.network());
  sys.configure(est);
  est.prepare();
  est.config().electrical.clock_hz *= 2;  // structural: baked into the models
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
    {"sync_spin", [](CoEstimatorConfig& c) { ++c.sync_spin; }},
    {"cache_hit_spin", [](CoEstimatorConfig& c) { ++c.cache_hit_spin; }},
    {"energy_cache.thresh_variance",
     [](CoEstimatorConfig& c) { c.energy_cache.thresh_variance += 0.5; }},
    {"energy_cache.thresh_iss_calls",
     [](CoEstimatorConfig& c) { ++c.energy_cache.thresh_iss_calls; }},
    {"max_reactions", [](CoEstimatorConfig& c) { ++c.max_reactions; }},
    {"hw_analytical_calibration_vectors",
     [](CoEstimatorConfig& c) { ++c.hw_analytical_calibration_vectors; }},
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
  EXPECT_EQ(structural.size(), 13u);
  EXPECT_EQ(run.size(), 12u);
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
  EXPECT_EQ(run_only.hw_analytical_calibration_vectors,
            src.hw_analytical_calibration_vectors);

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
  // Role order, unsorted: warm-state import matches backends by index.
  EXPECT_EQ(names, (std::vector<std::string>{"sw.iss", "hw.gate", "hw.rtl",
                                             "cache.icache", "bus.arbiter"}));
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

// ---- shared hardware designs -------------------------------------------------

/// The gate-level backend's simulator of `task` in a prepared estimator.
const hw::GateSim* gate_sim_of(const CoEstimator& est, cfsm::CfsmId task) {
  for (const ComponentEstimator* b : est.backends())
    if (const auto* hw = dynamic_cast<const HwEstimatorBase*>(b))
      if (const hw::GateSim* sim = hw->gate_sim(task)) return sim;
  return nullptr;
}

std::uint64_t counter(const char* name) {
  return telemetry::registry().counter(name).value();
}

TEST(EstimatorBackends, SeparateSystemsShareOneBuildPerHwUnit) {
  telemetry::set_enabled(true, false);
  const systems::MulticoreParams params{.cores = 2, .num_packets = 3};
  systems::MulticoreSystem sys_a(params);
  systems::MulticoreSystem sys_b(params);
  CoEstimator est_a(&sys_a.network(), sys_a.config_template());
  CoEstimator est_b(&sys_b.network(), sys_b.config_template());
  sys_a.configure(est_a);
  sys_b.configure(est_b);

  const std::uint64_t builds0 = counter("hw.design.builds");
  const std::uint64_t reuses0 = counter("hw.design.reuses");
  est_a.prepare();
  const std::uint64_t builds1 = counter("hw.design.builds");
  const std::uint64_t reuses1 = counter("hw.design.reuses");
  est_b.prepare();
  const std::uint64_t builds2 = counter("hw.design.builds");
  const std::uint64_t reuses2 = counter("hw.design.reuses");
  telemetry::set_enabled(false, false);
  // Two HW units (timer, collector): the first system builds them or finds
  // them from an earlier test; the second only reuses.
  EXPECT_EQ((builds1 - builds0) + (reuses1 - reuses0), 2u);
  EXPECT_EQ(builds2 - builds1, 0u);
  EXPECT_EQ(reuses2 - reuses1, 2u);

  for (const cfsm::CfsmId task : {sys_a.timer(), sys_a.collector()}) {
    SCOPED_TRACE(task);
    const hw::GateSim* a = gate_sim_of(est_a, task);
    const hw::GateSim* b = gate_sim_of(est_b, task);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_NE(a, b);  // per-estimator state
    EXPECT_EQ(&a->program(), &b->program());
    EXPECT_EQ(est_a.hw_image(task)->netlist.get(),
              est_b.hw_image(task)->netlist.get());
    EXPECT_EQ(&a->netlist(), est_a.hw_image(task)->netlist.get());
  }

  const RunResults ra = est_a.run(sys_a.stimulus(4096));
  const RunResults rb = est_b.run(sys_b.stimulus(4096));
  EXPECT_GT(ra.gate_sim_cycles, 0u);
  EXPECT_EQ(ra.total_energy, rb.total_energy);
  EXPECT_EQ(ra.process_energy, rb.process_energy);
  EXPECT_EQ(ra.cpu_energy, rb.cpu_energy);
  EXPECT_EQ(ra.hw_energy, rb.hw_energy);
  EXPECT_EQ(ra.bus_energy, rb.bus_energy);
  EXPECT_EQ(ra.cache_energy, rb.cache_energy);
  EXPECT_EQ(ra.end_time, rb.end_time);
  EXPECT_EQ(ra.reactions, rb.reactions);
  EXPECT_EQ(ra.gate_sim_cycles, rb.gate_sim_cycles);
  EXPECT_EQ(ra.iss_instructions, rb.iss_instructions);
  EXPECT_EQ(ra.coherence.invalidations, rb.coherence.invalidations);
  EXPECT_EQ(ra.coherence.energy, rb.coherence.energy);
}

/// One HW process `p`: on A it either adds `literal` to x and then emits
/// B(x), or (with `assign_skips_emit`) adds it and ends; without A it emits
/// B(x). The two shapes differ in one s-graph edge.
void build_unit(cfsm::Network& net, std::int32_t literal,
                bool assign_skips_emit) {
  const cfsm::EventId a = net.declare_event("A");
  const cfsm::EventId b = net.declare_event("B");
  cfsm::Cfsm& c = net.add_cfsm("p");
  c.add_input(a);
  c.add_output(b);
  const cfsm::VarId x = c.add_var("x", 1);
  cfsm::ExprArena& ar = c.arena();
  const cfsm::ExprId sum =
      ar.binary(cfsm::ExprOp::kAdd, ar.variable(x), ar.constant(literal));
  const cfsm::ExprId mixed =
      ar.binary(cfsm::ExprOp::kBitXor, sum, ar.event_value(a));
  cfsm::SGraph& g = c.graph();
  const cfsm::NodeId end = g.add_end();
  const cfsm::NodeId emit = g.add_emit(b, ar.variable(x), end);
  const cfsm::NodeId assign =
      g.add_assign(x, mixed, assign_skips_emit ? end : emit);
  g.set_root(g.add_test(ar.event_present(a), assign, emit));
  ASSERT_EQ(g.validate(), "");
}

TEST(EstimatorBackends, DistinctDesignsGetDistinctBuildsThatMatchPrivateOnes) {
  ElectricalParams low_vdd;
  low_vdd.vdd_volts = 1.8;
  struct Variant {
    const char* what;
    std::int32_t literal;
    bool skips_emit;
    ElectricalParams electrical;
  };
  const Variant variants[] = {{"base", 3, false, {}},
                              {"literal", 4, false, {}},
                              {"edge", 3, true, {}},
                              {"electrical", 3, false, low_vdd}};
  std::vector<std::shared_ptr<const hwsyn::HwDesign>> designs;
  for (const Variant& v : variants) {
    SCOPED_TRACE(v.what);
    cfsm::Network net;
    build_unit(net, v.literal, v.skips_emit);
    const cfsm::Cfsm& c = net.cfsm(0);
    designs.push_back(hwsyn::shared_design(c, v.electrical));
    for (std::size_t j = 0; j + 1 < designs.size(); ++j)
      EXPECT_NE(designs[j], designs.back()) << variants[j].what;
    // The same content declared again, in another network, is one build.
    cfsm::Network again;
    build_unit(again, v.literal, v.skips_emit);
    EXPECT_EQ(hwsyn::shared_design(again.cfsm(0), v.electrical),
              designs.back());

    // The shared program steps exactly like a private one over a netlist
    // synthesized separately.
    const hwsyn::HwImage img = hwsyn::synthesize_cfsm(c);
    hw::GateSim priv(img.netlist.get(), hw::TechParams::generic_250nm(),
                     v.electrical);
    const std::unique_ptr<hw::GateSim> shared =
        hwsyn::make_gate_sim(designs.back());
    const std::size_t n_pis = img.netlist->primary_inputs().size();
    ASSERT_EQ(shared->netlist().primary_inputs().size(), n_pis);
    Rng rng(0x5eed);
    for (int step = 0; step < 200; ++step) {
      for (std::size_t i = 0; i < n_pis; ++i) {
        const bool bit = rng.chance(0.5);
        priv.set_input(i, bit);
        shared->set_input(i, bit);
      }
      const hw::CycleResult rp = priv.step();
      const hw::CycleResult rs = shared->step();
      ASSERT_EQ(rp.energy, rs.energy) << "step " << step;
      ASSERT_EQ(rp.toggles, rs.toggles) << "step " << step;
      ASSERT_TRUE(std::equal(priv.last_toggles().begin(),
                             priv.last_toggles().end(),
                             shared->last_toggles().begin(),
                             shared->last_toggles().end()))
          << "step " << step;
    }
    EXPECT_EQ(priv.total_energy(), shared->total_energy());
  }
}

/// Points of one multicore design: every point prepares the same timer and
/// collector, so a threaded sweep looks them up concurrently.
std::vector<ExplorationPoint> one_design_points() {
  std::vector<ExplorationPoint> pts;
  for (const sim::SimTime gap : {2, 3, 5, 7, 11, 13}) {
    auto make_run = [gap](bool exact) {
      return [gap, exact] {
        systems::MulticoreSystem sys(
            {.cores = 2, .num_packets = 3, .start_gap = gap});
        CoEstimatorConfig cfg = sys.config_template();
        if (!exact) cfg.accel = Acceleration::kMacroModel;
        CoEstimator est(&sys.network(), cfg);
        sys.configure(est);
        est.prepare();
        return est.run(sys.stimulus(4096));
      };
    };
    ExplorationPoint p;
    p.label = "gap=" + std::to_string(gap);
    p.run_coarse = make_run(false);
    p.run_exact = make_run(true);
    pts.push_back(std::move(p));
  }
  return pts;
}

TEST(EstimatorBackends, ThreadedExploreOfOneDesignMatchesSerial) {
  const auto pts = one_design_points();
  // Threaded first: in a fresh process its workers race to build the
  // designs.
  const ExplorationOutcome threaded = explore(pts, 3, {.threads = 3});
  const ExplorationOutcome serial = explore(pts, 3);
  ASSERT_EQ(serial.ranked.size(), threaded.ranked.size());
  for (std::size_t i = 0; i < serial.ranked.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(serial.ranked[i].label, threaded.ranked[i].label);
    EXPECT_EQ(serial.ranked[i].coarse_energy, threaded.ranked[i].coarse_energy);
    EXPECT_EQ(serial.ranked[i].exact_energy, threaded.ranked[i].exact_energy);
  }
  EXPECT_EQ(serial.winner_confirmed, threaded.winner_confirmed);
}

TEST(EstimatorBackends, SharedMacroModelIsCopiedPerEstimator) {
  systems::TcpIpSystem sys(small_params());
  CoEstimator a(&sys.network());
  CoEstimator b(&sys.network());
  sys.configure(a);
  sys.configure(b);
  a.prepare();
  b.prepare();
  const MacroModelLibrary fresh = MacroModelLibrary::characterize(
      instruction_power_model(CoEstimatorConfig{}));
  EXPECT_EQ(a.macromodel().to_parameter_file(), fresh.to_parameter_file());
  MacroModelLibrary edited = a.macromodel();
  edited.set_cost(swsyn::MacroOp::kConst, {1.0, 1e-9, 4});
  a.set_macromodel(edited);
  // Only `a` changed; `b` and an estimator prepared later keep the
  // characterized library.
  EXPECT_EQ(b.macromodel().to_parameter_file(), fresh.to_parameter_file());
  CoEstimator c(&sys.network());
  sys.configure(c);
  c.prepare();
  EXPECT_EQ(c.macromodel().to_parameter_file(), fresh.to_parameter_file());
  EXPECT_NE(a.macromodel().to_parameter_file(), fresh.to_parameter_file());
}

TEST(EstimatorBackends, DesignTableKeepsAtMostTheBoundOfIdleBuilds) {
  std::weak_ptr<const hwsyn::HwDesign> first_design;
  std::weak_ptr<hw::ReactionTable> first_table;
  for (std::int32_t i = 0; i < static_cast<std::int32_t>(
                                   util::kMaxIdleBuilds + 4);
       ++i) {
    cfsm::Network net;
    build_unit(net, 1000 + i, false);  // a design no other test declares
    CoEstimator est(&net);
    est.map_hw(0);
    est.prepare();
    if (i == 0) {
      // Give the first design's reaction table some entries to free.
      sim::Stimulus stim;
      for (sim::SimTime t = 1; t <= 4; ++t) stim.add(t, net.event_id("A"), 1);
      (void)est.run(stim);
      const std::shared_ptr<const hwsyn::HwDesign> d =
          hwsyn::shared_design(net.cfsm(0), est.config().electrical);
      EXPECT_GT(d->reactions->size(), 0u);
      first_design = d;
      first_table = d->reactions;
    }
    EXPECT_LE(hwsyn::shared_design_count(), util::kMaxIdleBuilds + 1);
  }
  // Every estimator is gone: what is left is idle, and at the bound. The
  // first design was the least recently used, so it and its table are
  // freed.
  EXPECT_EQ(hwsyn::shared_design_count(), util::kMaxIdleBuilds);
  EXPECT_TRUE(first_design.expired());
  EXPECT_TRUE(first_table.expired());
}

}  // namespace
}  // namespace socpower::core
