// Facade-equivalence goldens: the master/backend split must be a pure
// refactor. Every row of facade_goldens.hpp was captured from the
// pre-refactor monolithic CoEstimator (same systems, same configs, hexfloat
// so no digits are lost), and the split must reproduce it BIT-identically —
// compared with EXPECT_EQ on doubles, not a tolerance. The matrix covers
// both benchmark systems (all-gate HW and mixed gate+RTL), all four
// acceleration modes, hw_batch on/off, flush threads 1 and 4, plus the
// HW-side acceleration, low-level verification, and separate-estimation
// paths.
//
// Run-to-run reuse rides on the same goldens: a second run() on the same
// instance (and a run() after set_macromodel()) must also match them, so
// per-run state provably resets completely.
#include <gtest/gtest.h>

#include <string>

#include "core/coestimator.hpp"
#include "dist/wire.hpp"
#include "facade_goldens.hpp"
#include "systems/tcpip.hpp"

namespace socpower::core {
namespace {

TEST(FacadeEquivalence, BitIdenticalToPreRefactorGoldens) {
  for (const Golden& golden : kGoldens) {
    SCOPED_TRACE(golden.tag);
    const std::string tag = golden.tag;
    const std::size_t slash = tag.find('/');
    systems::TcpIpSystem sys(params_for(tag.substr(0, slash)));
    bool separate = false;
    CoEstimator est(&sys.network(), config_for(tag.substr(slash + 1),
                                               &separate));
    sys.configure(est);
    est.prepare();
    const RunResults r = separate ? est.run_separate(sys.stimulus())
                                  : est.run(sys.stimulus());
    expect_matches(r, golden.v);
  }
}

TEST(FacadeEquivalence, ReactionCacheOffMatchesGoldens) {
  // With the reaction cache off every reaction, online and in the offline
  // flush, is priced by a real GateSim::step(); the goldens must still
  // reproduce bit-identically.
  for (const Golden& golden : kGoldens) {
    SCOPED_TRACE(golden.tag);
    const std::string tag = golden.tag;
    const std::size_t slash = tag.find('/');
    systems::TcpIpSystem sys(params_for(tag.substr(0, slash)));
    bool separate = false;
    CoEstimatorConfig cfg = config_for(tag.substr(slash + 1), &separate);
    cfg.hw_reaction_cache = false;
    CoEstimator est(&sys.network(), cfg);
    sys.configure(est);
    est.prepare();
    const RunResults r = separate ? est.run_separate(sys.stimulus())
                                  : est.run(sys.stimulus());
    expect_matches(r, golden.v);
  }
}

TEST(FacadeEquivalence, SecondRunOnSameInstanceMatchesGoldens) {
  // Run-to-run reuse across all four acceleration modes: per-run state
  // (event queue, latches, energy cache, samplers, batch buffers, counters)
  // must reset completely, so the second run reproduces the golden exactly.
  for (const Golden& golden : kGoldens) {
    const std::string tag = golden.tag;
    if (tag.find("/batch1/t1") == std::string::npos) continue;
    SCOPED_TRACE(tag);
    const std::size_t slash = tag.find('/');
    systems::TcpIpSystem sys(params_for(tag.substr(0, slash)));
    bool separate = false;
    CoEstimator est(&sys.network(), config_for(tag.substr(slash + 1),
                                               &separate));
    sys.configure(est);
    est.prepare();
    (void)est.run(sys.stimulus());
    expect_matches(est.run(sys.stimulus()), golden.v);
  }
}

TEST(FacadeEquivalence, RunAfterSetMacromodelMatchesGoldens) {
  // Re-installing the (identical) characterized library clears the per-path
  // memos; results must not drift.
  for (const char* tag_cstr :
       {"gate/macromodel/batch1/t1", "mixed/macromodel/batch1/t1"}) {
    const std::string tag = tag_cstr;
    SCOPED_TRACE(tag);
    const Golden* golden = nullptr;
    for (const Golden& g : kGoldens)
      if (tag == g.tag) golden = &g;
    ASSERT_NE(golden, nullptr);
    const std::size_t slash = tag.find('/');
    systems::TcpIpSystem sys(params_for(tag.substr(0, slash)));
    bool separate = false;
    CoEstimator est(&sys.network(), config_for(tag.substr(slash + 1),
                                               &separate));
    sys.configure(est);
    est.prepare();
    (void)est.run(sys.stimulus());
    est.set_macromodel(est.macromodel());
    expect_matches(est.run(sys.stimulus()), golden->v);
  }
}

TEST(FacadeEquivalence, RunSeparateThenRunOnSameInstance) {
  // Interleaving the Section 2 baseline with co-estimation on one instance
  // must leave both bit-identical to their goldens.
  for (const char* system : {"gate", "mixed"}) {
    SCOPED_TRACE(system);
    const Golden *run_g = nullptr, *sep_g = nullptr;
    const std::string run_tag = std::string(system) + "/none/batch1/t1";
    const std::string sep_tag = std::string(system) + "/separate";
    for (const Golden& g : kGoldens) {
      if (run_tag == g.tag) run_g = &g;
      if (sep_tag == g.tag) sep_g = &g;
    }
    ASSERT_NE(run_g, nullptr);
    ASSERT_NE(sep_g, nullptr);
    systems::TcpIpSystem sys(params_for(system));
    CoEstimator est(&sys.network(), CoEstimatorConfig{});
    sys.configure(est);
    est.prepare();
    expect_matches(est.run_separate(sys.stimulus()), sep_g->v);
    expect_matches(est.run(sys.stimulus()), run_g->v);
    expect_matches(est.run_separate(sys.stimulus()), sep_g->v);
  }
}

TEST(DistRemote, GoldensBitIdenticalWithRemoteHwBackends) {
  // Routing every hardware estimator through an out-of-process worker must
  // not change a single bit of any golden: the wire protocol carries doubles
  // as IEEE-754 bit patterns and the worker hosts the same backend the
  // master would. dist_flush_chunk is tiny so chunked eager draining (many
  // slices per flush) is actually exercised on these small runs.
  if (!dist::supported()) GTEST_SKIP() << "no fork/socketpair";
  for (const Golden& golden : kGoldens) {
    SCOPED_TRACE(golden.tag);
    const std::string tag = golden.tag;
    const std::size_t slash = tag.find('/');
    systems::TcpIpSystem sys(params_for(tag.substr(0, slash)));
    bool separate = false;
    CoEstimatorConfig cfg = config_for(tag.substr(slash + 1), &separate);
    cfg.hw_remote = true;
    cfg.dist_flush_chunk = 3;
    CoEstimator est(&sys.network(), cfg);
    sys.configure(est);
    est.prepare();
    const RunResults r = separate ? est.run_separate(sys.stimulus())
                                  : est.run(sys.stimulus());
    expect_matches(r, golden.v);
  }
}

}  // namespace
}  // namespace socpower::core
