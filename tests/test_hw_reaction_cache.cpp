// The gate-level reaction cache must be bit-identical to the raw simulator:
// same per-cycle energies, toggle counts, net values and cycle counts, for
// any netlist and stimulus, across resets and forced-state writes. These
// tests run a cached and an uncached GateSim side by side over randomized
// register-feedback netlists (mirroring the ISS block-cache differential
// fuzz), exercise the targeted invalidation rules (capacity generation
// clear, sync_hw_vars de-anchoring, reset re-anchoring), and repeat the
// comparison end to end through the co-estimator — including the parallel
// batch flush. The release-safety satellites (cyclic-netlist abort, input
// bounds) regress here too.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cfsm/cfsm.hpp"
#include "core/coestimator.hpp"
#include "core/estimators/hw_estimator.hpp"
#include "hw/gatesim.hpp"
#include "hw/netlist.hpp"
#include "hw/reaction_cache.hpp"
#include "hwsyn/rtl.hpp"
#include "hwsyn/synth.hpp"
#include "systems/tcpip.hpp"
#include "util/rng.hpp"

namespace socpower::hw {
namespace {

// -- random sequential netlist generator -------------------------------------

constexpr unsigned kWidth = 4;

ReactionCacheConfig cache_config(bool enabled, std::size_t max_entries) {
  ReactionCacheConfig cfg;
  cfg.enabled = enabled;
  cfg.max_entries = max_entries;
  return cfg;
}

struct RandomDesign {
  Netlist nl;
  std::vector<hwsyn::Word> regs;   // Q words, connected to random datapaths
  std::size_t n_inputs = 0;        // primary-input count
};

/// A random FSMD-shaped netlist: a few input words, a few register words,
/// and a random expression forest over them; every register feeds back on a
/// randomly chosen derived word, so state actually evolves with the data.
RandomDesign random_design(Rng& rng) {
  RandomDesign d;
  hwsyn::RtlBuilder rtl(&d.nl);
  std::vector<hwsyn::Word> pool;
  const std::size_t n_in = 2 + rng.below(2);
  for (std::size_t i = 0; i < n_in; ++i)
    pool.push_back(rtl.input_word("in" + std::to_string(i), kWidth));
  const std::size_t n_reg = 2 + rng.below(3);
  for (std::size_t i = 0; i < n_reg; ++i) {
    d.regs.push_back(
        rtl.reg_word(static_cast<std::uint32_t>(rng.below(16)), kWidth));
    pool.push_back(d.regs.back());
  }
  const std::size_t n_ops = 6 + rng.below(10);
  for (std::size_t i = 0; i < n_ops; ++i) {
    const hwsyn::Word& a = pool[rng.below(pool.size())];
    const hwsyn::Word& b = pool[rng.below(pool.size())];
    hwsyn::Word r;
    switch (rng.below(6)) {
      case 0: r = rtl.add(a, b); break;
      case 1: r = rtl.sub(a, b); break;
      case 2: r = rtl.word_xor(a, b); break;
      case 3: r = rtl.word_and(a, b); break;
      case 4: r = rtl.word_or(a, b); break;
      default: r = rtl.mux(rtl.eq(a, b), a, b); break;
    }
    pool.push_back(r);
  }
  for (const hwsyn::Word& q : d.regs) {
    // Feed back a word derived from state and inputs (never q itself alone,
    // which would freeze the register).
    const hwsyn::Word& src = pool[pool.size() - 1 - rng.below(n_ops)];
    rtl.connect_reg(q, rtl.word_xor(src, pool[rng.below(pool.size())]));
  }
  for (unsigned b = 0; b < kWidth; ++b)
    d.nl.mark_output(pool.back()[b], "out");
  EXPECT_EQ(d.nl.validate(), "");
  d.n_inputs = d.nl.primary_inputs().size();
  return d;
}

void expect_same_nets(const Netlist& nl, const GateSim& a, const GateSim& b) {
  for (std::size_t n = 0; n < nl.net_count(); ++n)
    ASSERT_EQ(a.net_value(static_cast<NetId>(n)),
              b.net_value(static_cast<NetId>(n)))
        << "net " << n << " diverged";
}

// -- multi-seed differential fuzz --------------------------------------------

class HwReactionCacheFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HwReactionCacheFuzz, CachedMatchesUncachedBitwise) {
  Rng rng(GetParam());
  RandomDesign d = random_design(rng);
  GateSim ref(&d.nl);
  GateSim sim(&d.nl);
  ReactionCache cache(&sim, cache_config(true, 256));

  // A small stimulus pool makes reactions repeat, so the cache actually
  // serves hits while the reference path re-simulates every cycle.
  std::vector<std::uint64_t> stimuli;
  for (int i = 0; i < 6; ++i) stimuli.push_back(rng.next());

  for (int step = 0; step < 400; ++step) {
    if (rng.chance(0.04)) {
      ref.reset();
      sim.reset();  // the cache re-anchors and may warm-hit old entries
    }
    if (rng.chance(0.04) && !d.regs.empty()) {
      // Forced register writes (what sync_hw_vars does) applied identically
      // to both simulators; the cached one must de-anchor, not corrupt.
      const hwsyn::Word& q = d.regs[rng.below(d.regs.size())];
      const NetId bit = q[rng.below(q.size())];
      const bool v = rng.chance(0.5);
      ref.force_net(bit, v);
      sim.force_net(bit, v);
    }
    const std::uint64_t vec = stimuli[rng.below(stimuli.size())];
    for (std::size_t i = 0; i < d.n_inputs; ++i) {
      ref.set_input(i, (vec >> (i & 63u)) & 1u);
      sim.set_input(i, (vec >> (i & 63u)) & 1u);
    }
    const CycleResult re = ref.step();
    const CycleResult ce = cache.step();
    ASSERT_EQ(re.energy, ce.energy) << "step " << step;  // bitwise
    ASSERT_EQ(re.toggles, ce.toggles) << "step " << step;
    if (step % 16 == 0) expect_same_nets(d.nl, ref, sim);
  }
  expect_same_nets(d.nl, ref, sim);
  EXPECT_EQ(ref.cycles_simulated(), sim.cycles_simulated());
  EXPECT_EQ(ref.total_energy(), sim.total_energy());  // bitwise
  // The stimulus pool repeats, so the cache must have replayed something
  // and skipped the corresponding gate evaluations.
  EXPECT_GT(cache.stats().hits, 0u);
  EXPECT_LE(sim.gates_evaluated(), ref.gates_evaluated());
}

INSTANTIATE_TEST_SUITE_P(Seeds, HwReactionCacheFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// -- targeted invalidation / bounding cases ----------------------------------

/// 4-bit counter with an enable input: tiny, stateful, deterministic.
struct Counter {
  Netlist nl;
  hwsyn::Word q;
  std::size_t n_inputs = 0;

  Counter() {
    hwsyn::RtlBuilder rtl(&nl);
    const NetId en = nl.add_primary_input("en");
    q = rtl.reg_word(0, kWidth);
    const hwsyn::Word inc = rtl.add(q, rtl.constant(1, kWidth));
    rtl.connect_reg(q, rtl.mux(en, inc, q));
    for (unsigned b = 0; b < kWidth; ++b) nl.mark_output(q[b], "q");
    n_inputs = nl.primary_inputs().size();
  }
};

TEST(HwReactionCache, RepeatedReactionHitsAndStaysIdentical) {
  Counter c;
  GateSim ref(&c.nl);
  GateSim sim(&c.nl);
  ReactionCache cache(&sim, {});
  // The counter wraps every 16 enabled cycles, so once every (state, input)
  // pair has been memoized the rest of the run is all hits: 17 distinct keys
  // (the post-reset anchor state plus 16 wrapped states, which repeat from
  // cycle 18 on), then 47 replays.
  for (int i = 0; i < 64; ++i) {
    ref.set_input(0, true);
    sim.set_input(0, true);
    const CycleResult re = ref.step();
    const CycleResult ce = cache.step();
    ASSERT_EQ(re.energy, ce.energy);
    ASSERT_EQ(re.toggles, ce.toggles);
  }
  EXPECT_EQ(cache.stats().misses, 17u);
  EXPECT_EQ(cache.stats().hits, 47u);
  EXPECT_GT(cache.stats().skipped_gate_evals, 0u);
  EXPECT_EQ(ref.total_energy(), sim.total_energy());
  expect_same_nets(c.nl, ref, sim);
}

TEST(HwReactionCache, CapacityTriggersGenerationClear) {
  Counter c;
  GateSim ref(&c.nl);
  GateSim sim(&c.nl);
  ReactionCache cache(&sim, cache_config(true, 5));
  for (int i = 0; i < 64; ++i) {
    ref.set_input(0, true);
    sim.set_input(0, true);
    const CycleResult re = ref.step();
    const CycleResult ce = cache.step();
    ASSERT_EQ(re.energy, ce.energy);
  }
  // 17 distinct (state, input) keys cycle through a 5-entry table: the
  // generation clear must have fired, and correctness must not care.
  EXPECT_GT(cache.stats().capacity_clears, 0u);
  EXPECT_GT(cache.stats().evicted_entries, 0u);
  EXPECT_LE(cache.size(), 5u);
  EXPECT_EQ(ref.total_energy(), sim.total_energy());
  expect_same_nets(c.nl, ref, sim);
}

TEST(HwReactionCache, ResetReanchorsAndWarmHits) {
  Counter c;
  GateSim sim(&c.nl);
  ReactionCache cache(&sim, {});
  auto run_epoch = [&] {
    Joules total = 0.0;
    for (int i = 0; i < 16; ++i) {
      sim.set_input(0, true);
      total += cache.step().energy;
    }
    return total;
  };
  const Joules cold = run_epoch();
  const std::uint64_t misses_after_cold = cache.stats().misses;
  sim.reset();  // what run_flush does for a kNoPath (reset) batch entry
  const Joules warm = run_epoch();
  EXPECT_EQ(cold, warm);  // bitwise: replays reproduce the memoized doubles
  EXPECT_EQ(cache.stats().misses, misses_after_cold);  // all 16 were hits
  EXPECT_GE(cache.stats().hits, 16u);
}

TEST(HwReactionCache, ImportRejectsEntriesThatDoNotFitTheNetlist) {
  // A replay writes net values at the stored toggles, so an imported entry
  // must fit this netlist before a hit may apply it.
  Counter c;
  GateSim donor(&c.nl);
  ReactionCache warm(&donor, {});
  donor.set_input(0, true);
  (void)warm.step();
  const std::vector<ExportedReaction> exported = warm.export_entries();
  ASSERT_EQ(exported.size(), 1u);
  const ExportedReaction& good = exported[0];
  ExportedReaction far_net = good;
  far_net.toggles.push_back(NetId{1} << 28);
  ExportedReaction negative_net = good;
  negative_net.toggles.push_back(-7);
  ExportedReaction long_key = good;
  long_key.key.push_back(0);
  ExportedReaction late_latch = good;
  late_latch.latch_begin = static_cast<std::uint32_t>(good.toggles.size() + 1);

  auto step_both = [&](GateSim& ref, GateSim& sim, ReactionCache& cache) {
    ref.set_input(0, true);
    sim.set_input(0, true);
    const CycleResult re = ref.step();
    const CycleResult ce = cache.step();
    EXPECT_EQ(re.energy, ce.energy);  // bitwise
    EXPECT_EQ(re.toggles, ce.toggles);
    expect_same_nets(c.nl, ref, sim);
  };
  {  // only malformed entries: all dropped, the step simulates
    GateSim ref(&c.nl);
    GateSim sim(&c.nl);
    ReactionCache cache(&sim, {});
    cache.import_entries({far_net, negative_net, long_key, late_latch});
    EXPECT_EQ(cache.stats().rejected_imports, 4u);
    EXPECT_EQ(cache.size(), 0u);
    step_both(ref, sim, cache);
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().misses, 1u);
  }
  {  // a malformed entry next to the good one: the good one still serves
    GateSim ref(&c.nl);
    GateSim sim(&c.nl);
    ReactionCache cache(&sim, {});
    cache.import_entries({far_net, good});
    EXPECT_EQ(cache.stats().rejected_imports, 1u);
    EXPECT_EQ(cache.size(), 1u);
    step_both(ref, sim, cache);
    EXPECT_EQ(cache.stats().hits, 1u);
  }
}

TEST(HwReactionCache, DisabledBypassesAndStaysIdentical) {
  Counter c;
  GateSim ref(&c.nl);
  GateSim sim(&c.nl);
  ReactionCache cache(&sim, cache_config(false, 64));
  for (int i = 0; i < 20; ++i) {
    ref.set_input(0, true);
    sim.set_input(0, true);
    ASSERT_EQ(ref.step().energy, cache.step().energy);
  }
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_EQ(cache.stats().bypassed, 20u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(HwReactionCache, SyncHwVarsInvalidatesUntilReset) {
  // Synthesized CFSM (v += 1 per TRIG) — the real sync_hw_vars protocol.
  cfsm::Network net;
  cfsm::Cfsm& c = net.add_cfsm("t");
  const cfsm::EventId trig = net.declare_event("TRIG");
  c.add_input(trig);
  const auto v = c.add_var("v");
  auto& g = c.graph();
  auto& a = c.arena();
  g.set_root(g.add_assign(
      v, a.binary(cfsm::ExprOp::kAdd, a.variable(v), a.constant(1)),
      g.add_end()));
  const hwsyn::HwImage img = hwsyn::synthesize_cfsm(c);
  GateSim ref(img.netlist.get());
  GateSim sim(img.netlist.get());
  ReactionCache cache(&sim, {});
  cfsm::ReactionInputs in;
  in.set(trig, 0);

  auto step_both = [&] {
    hwsyn::stage_hw_reaction(ref, img, in);
    hwsyn::stage_hw_reaction(sim, img, in);
    const CycleResult re = ref.step();
    const CycleResult ce = cache.step();
    ASSERT_EQ(re.energy, ce.energy);
    ASSERT_EQ(re.toggles, ce.toggles);
  };

  for (int i = 0; i < 4; ++i) step_both();
  EXPECT_EQ(cache.stats().invalidations, 0u);

  // Resynchronize the registers to a foreign state (as the master does after
  // acceleration skipped some reactions): the cache must de-anchor...
  cfsm::CfsmState st = c.make_state();
  st.vars[0] = 1000;
  hwsyn::sync_hw_vars(ref, img, st);
  hwsyn::sync_hw_vars(sim, img, st);
  const std::uint64_t hits_before = cache.stats().hits;
  for (int i = 0; i < 4; ++i) step_both();
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_EQ(cache.stats().hits, hits_before);  // bypassing, not hitting
  EXPECT_GE(cache.stats().bypassed, 4u);
  EXPECT_EQ(hwsyn::read_hw_var(ref, img, 0), 1004);
  EXPECT_EQ(hwsyn::read_hw_var(sim, img, 0), 1004);

  // ...and a no-op resync (states already equal: zero nets flip) must NOT
  // de-anchor — force_net only trips the flag on an actual change.
  st.vars[0] = hwsyn::read_hw_var(sim, img, 0);
  hwsyn::sync_hw_vars(ref, img, st);
  hwsyn::sync_hw_vars(sim, img, st);
  for (int i = 0; i < 2; ++i) step_both();
  EXPECT_EQ(cache.stats().invalidations, 1u);

  // reset() re-anchors: the first epoch's reactions replay as warm hits.
  ref.reset();
  sim.reset();
  for (int i = 0; i < 4; ++i) step_both();
  EXPECT_GT(cache.stats().hits, hits_before);
  expect_same_nets(*img.netlist, ref, sim);
}

// -- end-to-end through the co-estimator --------------------------------------

core::RunResults run_tcpip(bool cache_on, unsigned flush_threads,
                           bool accelerate_hw,
                           hw::ReactionCacheStats* stats_out = nullptr) {
  systems::TcpIpParams p;
  p.num_packets = 3;
  p.packet_bytes = 64;
  p.ip_check_in_hw = true;  // two gate-level ASICs
  systems::TcpIpSystem sys(p);
  core::CoEstimatorConfig cfg;
  cfg.hw_reaction_cache = cache_on;
  cfg.hw_flush_threads = flush_threads;
  if (accelerate_hw) {
    cfg.accel = core::Acceleration::kCaching;
    cfg.accelerate_hw = true;  // exercises sync_hw_vars resyncs end to end
  }
  core::CoEstimator est(&sys.network(), cfg);
  sys.configure(est);
  est.prepare();
  const core::RunResults r = est.run(sys.stimulus());
  if (stats_out) {
    for (const core::ComponentEstimator* b : est.backends())
      if (const auto* hb = dynamic_cast<const core::HwEstimatorBase*>(b)) {
        const hw::ReactionCacheStats s = hb->reaction_cache_stats();
        stats_out->hits += s.hits;
        stats_out->misses += s.misses;
        stats_out->bypassed += s.bypassed;
        stats_out->invalidations += s.invalidations;
        stats_out->skipped_gate_evals += s.skipped_gate_evals;
      }
  }
  return r;
}

void expect_identical_runs(const core::RunResults& off,
                           const core::RunResults& on) {
  EXPECT_EQ(off.total_energy, on.total_energy);  // bitwise throughout
  EXPECT_EQ(off.cpu_energy, on.cpu_energy);
  EXPECT_EQ(off.hw_energy, on.hw_energy);
  EXPECT_EQ(off.bus_energy, on.bus_energy);
  EXPECT_EQ(off.cache_energy, on.cache_energy);
  EXPECT_EQ(off.end_time, on.end_time);
  EXPECT_EQ(off.reactions, on.reactions);
  EXPECT_EQ(off.hw_reactions, on.hw_reactions);
  EXPECT_EQ(off.gate_sim_cycles, on.gate_sim_cycles);
  ASSERT_EQ(off.process_energy.size(), on.process_energy.size());
  for (std::size_t i = 0; i < off.process_energy.size(); ++i)
    EXPECT_EQ(off.process_energy[i], on.process_energy[i]);
}

TEST(HwReactionCacheEndToEnd, CoEstimationBitIdenticalOnVsOff) {
  hw::ReactionCacheStats stats;
  const core::RunResults off = run_tcpip(false, 1, false);
  const core::RunResults on = run_tcpip(true, 1, false, &stats);
  expect_identical_runs(off, on);
  EXPECT_GT(stats.hits, 0u);  // the acceptance-criterion nonzero hit rate
  EXPECT_GT(stats.skipped_gate_evals, 0u);
}

TEST(HwReactionCacheEndToEnd, AccelerateHwResyncsStayIdentical) {
  // accelerate_hw skips gate reactions and resynchronizes registers with
  // sync_hw_vars — the forced-write de-anchor path, end to end.
  hw::ReactionCacheStats stats;
  const core::RunResults off = run_tcpip(false, 1, true);
  const core::RunResults on = run_tcpip(true, 1, true, &stats);
  expect_identical_runs(off, on);
}

TEST(HwReactionCacheEndToEnd, ParallelFlushDeterministicWithCache) {
  const core::RunResults t1 = run_tcpip(true, 1, false);
  const core::RunResults t4 = run_tcpip(true, 4, false);
  expect_identical_runs(t1, t4);
}

TEST(HwReactionCacheEndToEnd, SecondRunWarmHitsAndMatches) {
  systems::TcpIpParams p;
  p.num_packets = 3;
  p.packet_bytes = 64;
  p.ip_check_in_hw = true;
  systems::TcpIpSystem sys(p);
  core::CoEstimatorConfig cfg;
  core::CoEstimator est(&sys.network(), cfg);
  sys.configure(est);
  est.prepare();
  const core::RunResults r1 = est.run(sys.stimulus());
  const core::RunResults r2 = est.run(sys.stimulus());
  expect_identical_runs(r1, r2);
  // The table survives begin_run (only the per-run knobs are re-read), so
  // the second run replays the first run's reactions.
  hw::ReactionCacheStats stats;
  for (const core::ComponentEstimator* b : est.backends())
    if (const auto* hb = dynamic_cast<const core::HwEstimatorBase*>(b)) {
      const hw::ReactionCacheStats s = hb->reaction_cache_stats();
      stats.hits += s.hits;
      stats.misses += s.misses;
    }
  EXPECT_GT(stats.hits, stats.misses);
}

// -- release-safety satellites -------------------------------------------------

TEST(GateSimBounds, OutOfRangeInputWritesDropAndCount) {
  // Regression: set_input() used to be assert-only (unchecked indexing under
  // NDEBUG). It must be checked in every build type: the write is dropped
  // and counted, in-range writes still land.
  Counter c;
  GateSim sim(&c.nl);
  sim.set_input_word(0, 0xFF, 8);  // 1 real input; 7 writes out of range
  EXPECT_EQ(sim.dropped_input_writes(), 7u);
  sim.step();
  EXPECT_EQ(sim.read_word(0, kWidth), 1u);  // the in-range enable applied
  sim.set_input(99, true);
  EXPECT_EQ(sim.dropped_input_writes(), 8u);
}

TEST(GateSimBounds, ReadWordClampsOutOfRangeBitsToZero) {
  Counter c;  // 4 marked outputs
  GateSim sim(&c.nl);
  sim.set_input(0, true);
  for (int i = 0; i < 3; ++i) sim.step();
  const std::uint32_t q = sim.read_word(0, kWidth);
  EXPECT_EQ(q, 3u);
  // Asking for more bits than exist must return the same value with the
  // excess bits read as 0, not walk past the output table.
  EXPECT_EQ(sim.read_word(0, 32), q);
  EXPECT_EQ(sim.read_word(kWidth + 10, 8), 0u);
}

TEST(GateSimDeath, CombinationalCycleAbortsInAllBuilds) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Two inverters in a ring, built via the forward-reference constructor.
  // GateSim must refuse the netlist in every build type (under NDEBUG the
  // old assert vanished and the simulator silently produced garbage).
  Netlist nl;
  const NetId x = nl.add_net();
  const NetId y = nl.add_gate(GateType::kInv, x);
  nl.add_gate_driving(x, GateType::kInv, y);
  EXPECT_DEATH({ GateSim sim(&nl); }, "combinational cycle");
}

}  // namespace
}  // namespace socpower::hw
