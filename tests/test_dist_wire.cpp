// Wire-protocol round-trip and rejection tests.
//
// The dist protocol carries the co-estimation bit-identity contract over a
// byte stream, so the round-trip checks compare doubles by IEEE-754 bit
// pattern (std::bit_cast), not by value: NaN payloads, denormals and
// negative zero must survive encoding exactly. The rejection tests feed
// every strict prefix of a valid frame (truncation) and a frame with
// trailing garbage to each decoder — decoders must fail cleanly rather than
// read past the end or accept a short frame.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "dist/wire.hpp"
#include "dist/worker.hpp"
#include "serve/checkpoint.hpp"
#include "serve/protocol.hpp"

namespace socpower::dist {
namespace {

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Doubles with awkward representations, cycled into the fuzzed payloads.
double tricky_double(std::mt19937_64& rng) {
  switch (rng() % 8) {
    case 0: return std::numeric_limits<double>::quiet_NaN();
    case 1: return -std::numeric_limits<double>::quiet_NaN();
    case 2: return std::numeric_limits<double>::denorm_min();
    case 3: return -std::numeric_limits<double>::denorm_min();
    case 4: return -0.0;
    case 5: return std::numeric_limits<double>::infinity();
    case 6: return -std::numeric_limits<double>::infinity();
    default: return std::bit_cast<double>(rng());  // arbitrary bit pattern
  }
}

cfsm::ReactionInputs random_inputs(std::mt19937_64& rng) {
  cfsm::ReactionInputs in;
  const unsigned n = rng() % 5;
  for (unsigned i = 0; i < n; ++i)
    in.set(static_cast<cfsm::EventId>(rng() % 16),
           static_cast<std::int32_t>(rng()));
  return in;
}

cfsm::CfsmState random_state(std::mt19937_64& rng) {
  cfsm::CfsmState st;
  const unsigned n = rng() % 6;
  for (unsigned i = 0; i < n; ++i)
    st.vars.push_back(static_cast<std::int32_t>(rng()));
  return st;
}

std::vector<cfsm::NodeId> random_trace(std::mt19937_64& rng) {
  std::vector<cfsm::NodeId> t;
  const unsigned n = rng() % 7;
  for (unsigned i = 0; i < n; ++i)
    t.push_back(static_cast<cfsm::NodeId>(rng() % 1000));
  return t;
}

ChunkPayload random_chunk(std::mt19937_64& rng) {
  ChunkPayload c;
  c.task = static_cast<cfsm::CfsmId>(rng() % 8);
  c.base_paths = static_cast<std::uint32_t>(rng() % 100);
  const unsigned np = rng() % 4;
  for (unsigned i = 0; i < np; ++i) c.new_paths.push_back(random_trace(rng));
  const unsigned ne = rng() % 5;
  for (unsigned i = 0; i < ne; ++i) {
    ChunkPayload::Entry e;
    e.time = rng();
    e.inputs = random_inputs(rng);
    e.path = (rng() % 4 == 0) ? cfsm::kNoPath
                              : static_cast<cfsm::PathId>(rng() % 50);
    e.pre = random_state(rng);
    c.entries.push_back(e);
  }
  return c;
}

/// A config with every run knob drawn at random (structural knobs default).
core::CoEstimatorConfig random_run_knobs(std::mt19937_64& rng) {
  core::CoEstimatorConfig c;
  c.accel = static_cast<core::Acceleration>(rng() % 4);
  c.verify_lowlevel = rng() % 2 == 0;
  c.accelerate_hw = rng() % 2 == 0;
  c.hw_batch = rng() % 2 == 0;
  c.hw_flush_threads = static_cast<unsigned>(rng());
  c.hw_reaction_cache = rng() % 2 == 0;
  c.sync_spin = static_cast<unsigned>(rng());
  c.cache_hit_spin = static_cast<unsigned>(rng());
  c.energy_cache.thresh_variance = tricky_double(rng);
  c.energy_cache.thresh_iss_calls = rng();
  c.max_reactions = rng();
  c.hw_analytical_calibration_vectors = static_cast<unsigned>(rng());
  return c;
}

void expect_run_knobs_equal(const core::CoEstimatorConfig& a,
                            const core::CoEstimatorConfig& b) {
  EXPECT_EQ(a.accel, b.accel);
  EXPECT_EQ(a.verify_lowlevel, b.verify_lowlevel);
  EXPECT_EQ(a.accelerate_hw, b.accelerate_hw);
  EXPECT_EQ(a.hw_batch, b.hw_batch);
  EXPECT_EQ(a.hw_flush_threads, b.hw_flush_threads);
  EXPECT_EQ(a.hw_reaction_cache, b.hw_reaction_cache);
  EXPECT_EQ(a.sync_spin, b.sync_spin);
  EXPECT_EQ(a.cache_hit_spin, b.cache_hit_spin);
  EXPECT_TRUE(bits_equal(a.energy_cache.thresh_variance,
                         b.energy_cache.thresh_variance));
  EXPECT_EQ(a.energy_cache.thresh_iss_calls, b.energy_cache.thresh_iss_calls);
  EXPECT_EQ(a.max_reactions, b.max_reactions);
  EXPECT_EQ(a.hw_analytical_calibration_vectors,
            b.hw_analytical_calibration_vectors);
}

/// The knob block decoder as a bool, the shape the assertions below want.
bool decode_knobs(WireReader& r, core::CoEstimatorConfig* cfg,
                  core::KnobScope scope) {
  knobs(r, *cfg, scope);
  return r.ok();
}

std::vector<std::uint8_t> run_block(const core::CoEstimatorConfig& cfg) {
  WireWriter w;
  knobs(w, cfg, core::KnobScope::kRun);
  return w.take();
}

void expect_inputs_equal(const cfsm::ReactionInputs& a,
                         const cfsm::ReactionInputs& b) {
  EXPECT_EQ(a.all(), b.all());
}

void expect_chunks_equal(const ChunkPayload& a, const ChunkPayload& b) {
  EXPECT_EQ(a.task, b.task);
  EXPECT_EQ(a.base_paths, b.base_paths);
  EXPECT_EQ(a.new_paths, b.new_paths);
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (std::size_t i = 0; i < a.entries.size(); ++i) {
    EXPECT_EQ(a.entries[i].time, b.entries[i].time);
    expect_inputs_equal(a.entries[i].inputs, b.entries[i].inputs);
    EXPECT_EQ(a.entries[i].path, b.entries[i].path);
    EXPECT_EQ(a.entries[i].pre.vars, b.entries[i].pre.vars);
  }
}

TEST(DistWire, PrimitiveDoublesRoundTripBitExact) {
  for (const double d :
       {std::numeric_limits<double>::quiet_NaN(), -0.0, 0.0,
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(), 1.0, -1.5e-300}) {
    WireWriter w;
    w.f64(d);
    WireReader r(w.bytes());
    double back = 0.0;
    r.f64(back);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.at_end());
    EXPECT_TRUE(bits_equal(d, back))
        << std::bit_cast<std::uint64_t>(d) << " vs "
        << std::bit_cast<std::uint64_t>(back);
  }
}

TEST(DistWire, FuzzedRoundTripsFiveSeeds) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    for (int iter = 0; iter < 50; ++iter) {
      // Chunk payload.
      {
        const ChunkPayload c = random_chunk(rng);
        WireWriter w;
        encode(w, c);
        WireReader r(w.bytes());
        ChunkPayload back;
        ASSERT_TRUE(decode(r, &back));
        ASSERT_TRUE(r.at_end());
        expect_chunks_equal(c, back);
      }
      // Cost payload.
      {
        CostPayload c;
        c.task = static_cast<cfsm::CfsmId>(rng() % 8);
        c.inputs = random_inputs(rng);
        for (unsigned i = 0; i < rng() % 4; ++i)
          c.reaction.emissions.push_back(
              {static_cast<cfsm::EventId>(rng() % 16),
               static_cast<std::int32_t>(rng())});
        c.reaction.trace = random_trace(rng);
        c.pre_state = random_state(rng);
        c.post_state = random_state(rng);
        WireWriter w;
        encode(w, c);
        WireReader r(w.bytes());
        CostPayload back;
        ASSERT_TRUE(decode(r, &back));
        ASSERT_TRUE(r.at_end());
        EXPECT_EQ(c.task, back.task);
        expect_inputs_equal(c.inputs, back.inputs);
        ASSERT_EQ(c.reaction.emissions.size(), back.reaction.emissions.size());
        for (std::size_t i = 0; i < c.reaction.emissions.size(); ++i) {
          EXPECT_EQ(c.reaction.emissions[i].event,
                    back.reaction.emissions[i].event);
          EXPECT_EQ(c.reaction.emissions[i].value,
                    back.reaction.emissions[i].value);
        }
        EXPECT_EQ(c.reaction.trace, back.reaction.trace);
        EXPECT_EQ(c.pre_state.vars, back.pre_state.vars);
        EXPECT_EQ(c.post_state.vars, back.post_state.vars);
      }
      // Flush result with tricky energies.
      {
        core::ComponentEstimator::FlushResult fr;
        fr.gate_cycles = rng();
        for (unsigned i = 0; i < rng() % 6; ++i)
          fr.entries.push_back({rng(), static_cast<cfsm::PathId>(rng() % 50),
                                tricky_double(rng)});
        WireWriter w;
        encode(w, fr);
        WireReader r(w.bytes());
        core::ComponentEstimator::FlushResult back;
        ASSERT_TRUE(decode(r, &back));
        ASSERT_TRUE(r.at_end());
        EXPECT_EQ(fr.gate_cycles, back.gate_cycles);
        ASSERT_EQ(fr.entries.size(), back.entries.size());
        for (std::size_t i = 0; i < fr.entries.size(); ++i) {
          EXPECT_EQ(fr.entries[i].time, back.entries[i].time);
          EXPECT_EQ(fr.entries[i].path, back.entries[i].path);
          EXPECT_TRUE(bits_equal(fr.entries[i].energy, back.entries[i].energy));
        }
      }
      // Transition cost.
      {
        core::TransitionCost c{tricky_double(rng), tricky_double(rng),
                               rng() % 2 == 0};
        WireWriter w;
        encode(w, c);
        WireReader r(w.bytes());
        core::TransitionCost back;
        ASSERT_TRUE(decode(r, &back));
        ASSERT_TRUE(r.at_end());
        EXPECT_TRUE(bits_equal(c.cycles, back.cycles));
        EXPECT_TRUE(bits_equal(c.energy, back.energy));
        EXPECT_EQ(c.simulated, back.simulated);
      }
      // Run results.
      {
        core::RunResults res;
        res.total_energy = tricky_double(rng);
        for (unsigned i = 0; i < rng() % 4; ++i)
          res.process_energy.push_back(tricky_double(rng));
        res.hw_energy = tricky_double(rng);
        res.end_time = rng();
        res.gate_sim_cycles = rng();
        res.icache.accesses = rng();
        res.icache.energy = tricky_double(rng);
        res.bus_totals.transfers = rng();
        res.bus_totals.energy = tricky_double(rng);
        res.wall_seconds = tricky_double(rng);
        res.truncated = rng() % 2 == 0;
        WireWriter w;
        encode(w, res);
        WireReader r(w.bytes());
        core::RunResults back;
        ASSERT_TRUE(decode(r, &back));
        ASSERT_TRUE(r.at_end());
        EXPECT_TRUE(bits_equal(res.total_energy, back.total_energy));
        ASSERT_EQ(res.process_energy.size(), back.process_energy.size());
        for (std::size_t i = 0; i < res.process_energy.size(); ++i)
          EXPECT_TRUE(
              bits_equal(res.process_energy[i], back.process_energy[i]));
        EXPECT_TRUE(bits_equal(res.hw_energy, back.hw_energy));
        EXPECT_EQ(res.end_time, back.end_time);
        EXPECT_EQ(res.gate_sim_cycles, back.gate_sim_cycles);
        EXPECT_EQ(res.icache.accesses, back.icache.accesses);
        EXPECT_TRUE(bits_equal(res.icache.energy, back.icache.energy));
        EXPECT_EQ(res.bus_totals.transfers, back.bus_totals.transfers);
        EXPECT_TRUE(bits_equal(res.bus_totals.energy, back.bus_totals.energy));
        EXPECT_TRUE(bits_equal(res.wall_seconds, back.wall_seconds));
        EXPECT_EQ(res.truncated, back.truncated);
      }
      // Run knob block (the kBeginRun payload).
      {
        const core::CoEstimatorConfig k = random_run_knobs(rng);
        const std::vector<std::uint8_t> bytes = run_block(k);
        WireReader r(bytes);
        core::CoEstimatorConfig back;
        ASSERT_TRUE(decode_knobs(r, &back, core::KnobScope::kRun));
        ASSERT_TRUE(r.at_end());
        expect_run_knobs_equal(k, back);
        // Decoding the run block never reaches structural state.
        EXPECT_EQ(core::structural_mismatch(back, core::CoEstimatorConfig{}),
                  nullptr);
      }
    }
  }
}

TEST(DistWire, TruncatedFramesAreRejected) {
  // A decoder fed any strict prefix of a valid encoding must fail (or at
  // minimum not report a clean full-frame parse). Never crash, never accept.
  std::mt19937_64 rng(42);
  const ChunkPayload c = random_chunk(rng);
  WireWriter w;
  encode(w, c);
  const std::vector<std::uint8_t>& full = w.bytes();
  ASSERT_FALSE(full.empty());
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    WireReader r(full.data(), cut);
    ChunkPayload out;
    const bool clean = decode(r, &out) && r.at_end();
    EXPECT_FALSE(clean) << "prefix of length " << cut << " decoded cleanly";
  }

  CostPayload cost;
  cost.inputs = random_inputs(rng);
  cost.reaction.trace = random_trace(rng);
  cost.pre_state = random_state(rng);
  cost.post_state = random_state(rng);
  WireWriter wc;
  encode(wc, cost);
  for (std::size_t cut = 0; cut < wc.bytes().size(); ++cut) {
    WireReader r(wc.bytes().data(), cut);
    CostPayload out;
    EXPECT_FALSE(decode(r, &out) && r.at_end());
  }
}

TEST(DistWire, TruncatedRunBlocksAreRejected) {
  std::mt19937_64 rng(44);
  const std::vector<std::uint8_t> full = run_block(random_run_knobs(rng));
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    WireReader r(full.data(), cut);
    core::CoEstimatorConfig out;
    EXPECT_FALSE(decode_knobs(r, &out, core::KnobScope::kRun))
        << "prefix of length " << cut << " decoded";
  }
}

// The accel byte leads the run block; 4 is one past kSampling.
constexpr std::uint8_t kBadAccel = 4;

TEST(DistWire, OutOfRangeAccelIsRejected) {
  std::vector<std::uint8_t> block = run_block(core::CoEstimatorConfig{});
  block[0] = kBadAccel;
  WireReader r(block);
  core::CoEstimatorConfig out;
  EXPECT_FALSE(decode_knobs(r, &out, core::KnobScope::kRun));

  // Same byte inside a serve RunRequest: [u8 separate][run block].
  WireWriter w;
  encode(w, serve::RunRequest{});
  std::vector<std::uint8_t> request = w.take();
  request[1] = kBadAccel;
  WireReader rr(request);
  serve::RunRequest decoded;
  EXPECT_FALSE(decode(rr, &decoded));
}

using DistWireDeathTest = ::testing::Test;

TEST(DistWireDeathTest, WorkerAbortsOnMalformedBeginRun) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const cfsm::Network net;
  Worker worker("hw.gate", &net, core::CoEstimatorConfig{}, {});
  std::vector<std::uint8_t> block = run_block(core::CoEstimatorConfig{});
  EXPECT_FALSE(worker.dispatch(MsgType::kBeginRun, block).has_value());
  block[0] = kBadAccel;
  EXPECT_DEATH((void)worker.dispatch(MsgType::kBeginRun, block),
               "malformed begin_run");
  block[0] = 0;
  block.push_back(0);  // trailing byte
  EXPECT_DEATH((void)worker.dispatch(MsgType::kBeginRun, block),
               "malformed begin_run");
}

TEST(DistWire, TrailingGarbageIsDetectable) {
  std::mt19937_64 rng(43);
  const ChunkPayload c = random_chunk(rng);
  WireWriter w;
  encode(w, c);
  std::vector<std::uint8_t> bytes = w.bytes();
  bytes.push_back(0xAB);
  WireReader r(bytes);
  ChunkPayload out;
  // The payload itself still parses, but at_end() exposes the extra byte —
  // full-frame consumers require both.
  EXPECT_TRUE(decode(r, &out));
  EXPECT_FALSE(r.at_end());
}

TEST(DistWire, CorruptLengthFieldDoesNotAllocate) {
  // A frame claiming 2^32-1 entries must be rejected by the length rule
  // before any giant reserve happens.
  WireWriter w;
  w.i32(0);            // task
  w.u32(0);            // base_paths
  w.u32(0xFFFFFFFFu);  // new_paths length: absurd
  WireReader r(w.bytes());
  ChunkPayload out;
  EXPECT_FALSE(decode(r, &out));
}

TEST(DistWire, ExpectsReplyMatchesProtocol) {
  EXPECT_TRUE(expects_reply(MsgType::kCost));
  EXPECT_TRUE(expects_reply(MsgType::kFlushUnit));
  EXPECT_TRUE(expects_reply(MsgType::kSeparateStep));
  EXPECT_TRUE(expects_reply(MsgType::kStats));
  EXPECT_FALSE(expects_reply(MsgType::kBeginRun));
  EXPECT_FALSE(expects_reply(MsgType::kEnqueueChunk));
  EXPECT_FALSE(expects_reply(MsgType::kShutdown));
  EXPECT_FALSE(expects_reply(MsgType::kReply));
}

// ---- pinned bytes ----------------------------------------------------------
//
// One hand-built value per message type and the hex of its encoding. Every
// byte of these frames is a compatibility promise: dist workers and the
// master may come from different builds of the same protocol, serve clients
// talk to long-lived servers, and checkpoints outlive the process that wrote
// them. A codec change that moves any byte fails here; one that is meant to
// must bump kServeProtocolVersion / kCheckpointVersion and re-pin.

std::string hex(const std::vector<std::uint8_t>& bytes) {
  static const char* const kDigits = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 15]);
  }
  return out;
}

/// A quiet NaN with a payload: must survive as its bit pattern.
const double kNaNPayload = std::bit_cast<double>(0x7ff8000000000123ull);

cfsm::ReactionInputs pinned_inputs() {
  cfsm::ReactionInputs in;
  in.set(5, -1);
  in.set(9, 42);
  return in;
}

core::RunResults pinned_run_results() {
  core::RunResults r;
  r.total_energy = 1.25e-9;
  r.process_energy = {kNaNPayload, -0.0};
  r.cpu_energy = 2.0;
  r.hw_energy = 3.0;
  r.bus_energy = 4.0;
  r.cache_energy = 5.0;
  r.end_time = 0x0102030405060708ull;
  r.reactions = 11;
  r.sw_reactions = 12;
  r.hw_reactions = 13;
  r.iss_invocations = 14;
  r.iss_instructions = 15;
  r.gate_sim_cycles = 16;
  r.cache_hits_served = 17;
  r.icache.accesses = 18;
  r.icache.misses = 19;
  r.icache.penalty_cycles = 20;
  r.icache.energy = 21.0;
  r.bus_totals.transfers = 22;
  r.bus_totals.grants = 23;
  r.bus_totals.bytes = 24;
  r.bus_totals.addr_toggles = 25;
  r.bus_totals.data_toggles = 26;
  r.bus_totals.wait_cycles = 27;
  r.bus_totals.energy = 28.0;
  r.coherence.accesses = 29;
  r.coherence.l1_hits = 30;
  r.coherence.l1_misses = 31;
  r.coherence.upgrades = 32;
  r.coherence.invalidations = 33;
  r.coherence.writebacks = 34;
  r.coherence.energy = 35.0;
  r.wall_seconds = 0.5;
  r.truncated = true;
  r.process_leakage = {std::numeric_limits<double>::denorm_min()};
  r.leakage_energy = 36.0;
  return r;
}

hw::AnalyticalModel pinned_analytical_model() {
  hw::AnalyticalModel m;
  hw::AnalyticalUnitModel u;
  u.task = 2;
  for (std::size_t i = 0; i < hw::kAnalyticalTerms; ++i)
    u.coeff[i] = 1.0 + static_cast<double>(i);
  u.leakage_watts = 5e-9;
  u.calibration_vectors = 64;
  u.residual_rms_j = 1e-15;
  m.units.push_back(u);
  hw::AnalyticalCalibrationState c;
  c.task = 4;
  for (std::size_t i = 0; i < std::size(c.moments.xtx); ++i)
    c.moments.xtx[i] = 0.5 * static_cast<double>(i);
  for (std::size_t i = 0; i < std::size(c.moments.xty); ++i)
    c.moments.xty[i] = -0.25 * static_cast<double>(i);
  c.moments.yty = 7.0;
  c.moments.n = 17;
  m.pending.push_back(c);
  return m;
}

serve::Checkpoint pinned_checkpoint() {
  serve::Checkpoint c;
  c.system.name = "tcpip";
  c.system.set("num_packets", 3);
  core::BackendWarmState sw;
  sw.block_entries = {0x100, 0x200};
  core::BackendWarmState hw;
  core::BackendWarmState::UnitReactions ur;
  ur.task = 1;
  hw::ExportedReaction e;
  e.key = {1, 0xfedcba9876543210ull};
  e.energy = 3e-12;
  e.toggles = {4, 5, 6};
  e.latch_begin = 2;
  e.gate_evals = 7;
  ur.entries.push_back(e);
  hw.reactions.push_back(ur);
  hw.analytical = pinned_analytical_model();
  c.warm.backends = {sw, hw};
  core::EnergyCache::ExportedEntry ce;
  ce.task = 0;
  ce.path = 1;
  ce.cycles = {3, 10.0, 0.5, 9.0, 11.0, 30.0};
  ce.energy = {3, 1e-12, 1e-30, 9e-13, 1.1e-12, 3e-12};
  c.warm.ecache.push_back(ce);
  c.warm.ecache_hits = 9;
  c.warm.ecache_simulations = 10;
  return c;
}

TEST(DistWire, EveryMessageEncodesToPinnedBytes) {
  {
    ChunkPayload c;
    c.task = 3;
    c.base_paths = 7;
    c.new_paths = {{1, 2, 3}, {}};
    c.entries.push_back(
        {0x0102030405060708ull, pinned_inputs(), 2, {{-7, 0x7fffffff}}});
    c.entries.push_back({9, {}, cfsm::kNoPath, {}});
    WireWriter w;
    encode(w, c);
    EXPECT_EQ(hex(w.bytes()),
              "0300000007000000020000000300000001000000020000000300000000000000"
              "0200000008070605040302010200000005000000ffffffff090000002a000000"
              "0200000002000000f9ffffffffffff7f090000000000000000000000ffffffff"
              "00000000")
        << "chunk";
  }
  {
    CostPayload c;
    c.task = 1;
    c.inputs = pinned_inputs();
    c.reaction.emissions = {{4, -3}};
    c.reaction.trace = {0, 5, 9};
    c.pre_state.vars = {1, 2};
    c.post_state.vars = {3};
    WireWriter w;
    encode(w, c);
    EXPECT_EQ(hex(w.bytes()),
              "010000000200000005000000ffffffff090000002a0000000100000004000000"
              "fdffffff03000000000000000500000009000000020000000100000002000000"
              "0100000003000000")
        << "cost";
  }
  {
    WireWriter w;
    encode(w, core::TransitionCost{1.5, kNaNPayload, false});
    EXPECT_EQ(hex(w.bytes()),
              "000000000000f83f230100000000f87f00")
        << "transition cost";
  }
  {
    core::ComponentEstimator::FlushResult fr;
    fr.gate_cycles = 12345;
    fr.entries = {
        {10, 1, 2.5e-12},
        {11, cfsm::kNoPath, std::numeric_limits<double>::denorm_min()}};
    WireWriter w;
    encode(w, fr);
    EXPECT_EQ(hex(w.bytes()),
              "3930000000000000020000000a0000000000000001000000956479e17ffd853d"
              "0b00000000000000ffffffff0100000000000000")
        << "flush result";
  }
  {
    WireWriter w;
    encode(w, pinned_run_results());
    EXPECT_EQ(hex(w.bytes()),
              "3a8c30e28e79153e02000000230100000000f87f000000000000008000000000"
              "0000004000000000000008400000000000001040000000000000144008070605"
              "040302010b000000000000000c000000000000000d000000000000000e000000"
              "000000000f000000000000001000000000000000110000000000000012000000"
              "0000000013000000000000001400000000000000000000000000354016000000"
              "000000001700000000000000180000000000000019000000000000001a000000"
              "000000001b000000000000000000000000003c401d000000000000001e000000"
              "000000001f000000000000002000000000000000210000000000000022000000"
              "000000000000000000804140000000000000e03f010100000001000000000000"
              "000000000000004240")
        << "run results";
  }
  {
    WireWriter w;
    encode(w, pinned_analytical_model());
    EXPECT_EQ(hex(w.bytes()),
              "0100000002000000000000000000f03f00000000000000400000000000000840"
              "00000000000010403a8c30e28e79353e400000001656e79eaf03d23c01000000"
              "040000000000000000000000000000000000e03f000000000000f03f00000000"
              "0000f83f00000000000000400000000000000440000000000000084000000000"
              "00000c4000000000000010400000000000001240000000000000144000000000"
              "0000164000000000000018400000000000001a400000000000001c4000000000"
              "00001e400000000000000080000000000000d0bf000000000000e0bf00000000"
              "0000e8bf0000000000001c401100000000000000")
        << "analytical model";
  }
  {
    serve::SystemParams s;
    s.name = "tcpip";
    s.set("num_packets", 3);
    s.set("seed", -2);
    WireWriter w;
    encode(w, s);
    EXPECT_EQ(hex(w.bytes()),
              "050000007463706970020000000b0000006e756d5f7061636b65747303000000"
              "000000000400000073656564feffffffffffffff")
        << "system";
  }
  {
    serve::RunRequest rr;
    rr.separate = true;
    rr.config.accel = core::Acceleration::kSampling;
    rr.config.hw_batch = false;
    rr.config.energy_cache.thresh_variance = -0.0;
    WireWriter w;
    encode(w, rr);
    EXPECT_EQ(hex(w.bytes()),
              "0103000000010000000100000000000000000000000000000080030000000000"
              "0000002d31010000000000010000")
        << "run request";
  }
  {
    serve::RequestStats s;
    s.wall_ms = 12.5;
    s.run_index = 3;
    s.restored_session = true;
    s.ecache_hits = 4;
    s.warm_hits = 5;
    s.warm_fills = 6;
    WireWriter w;
    encode(w, s);
    EXPECT_EQ(hex(w.bytes()),
              "0000000000002940030000000000000001040000000000000005000000000000"
              "000600000000000000")
        << "request stats";
  }
  {
    serve::ServeStatsReply s;
    s.sessions = 1;
    s.requests = 2;
    s.checkpoint_bytes = 3;
    s.restore_hits = 4;
    s.evictions = 5;
    s.latency_count = 6;
    s.latency_mean_ms = 7.5;
    s.latency_min_ms = 0.25;
    s.latency_max_ms = 19.0;
    s.rendered = "tbl\n";
    WireWriter w;
    encode(w, s);
    EXPECT_EQ(hex(w.bytes()),
              "0100000000000000020000000000000003000000000000000400000000000000"
              "050000000000000006000000000000000000000000001e40000000000000d03f"
              "00000000000033400400000074626c0a")
        << "stats reply";
  }
  // The warm snapshot travels inside the SPCK container: header, system,
  // structural block, then the snapshot itself.
  EXPECT_EQ(hex(serve::encode_checkpoint(pinned_checkpoint())),
            "5350434b030000006002000000000000e44f9524edfe98c00500000074637069"
            "70010000000b0000006e756d5f7061636b657473030000000000000066666666"
            "66660a400000000084d7974100000000000000000600000073772e6973730700"
            "000068772e676174650600000068772e72746c0c00000063616368652e696361"
            "6368650b0000006275732e61726269746572070000006275732e6e6f63000100"
            "0000000002000000020000000001000000020000000000000000000000000000"
            "0000000001000000010000000100000002000000010000000000000010325476"
            "98badcfe1adfc44166638a3d0300000004000000050000000600000002000000"
            "07000000000000000100000002000000000000000000f03f0000000000000040"
            "000000000000084000000000000010403a8c30e28e79353e400000001656e79e"
            "af03d23c01000000040000000000000000000000000000000000e03f00000000"
            "0000f03f000000000000f83f0000000000000040000000000000044000000000"
            "000008400000000000000c400000000000001040000000000000124000000000"
            "00001440000000000000164000000000000018400000000000001a4000000000"
            "00001c400000000000001e400000000000000080000000000000d0bf00000000"
            "0000e0bf000000000000e8bf0000000000001c40110000000000000001000000"
            "000000000100000003000000000000000000000000002440000000000000e03f"
            "000000000000224000000000000026400000000000003e400300000000000000"
            "11ea2d819997713da0c2ebfe4b48b43952a552b57aaa6f3d7981b2a7f559733d"
            "1adfc44166638a3d09000000000000000a00000000000000")
      << "warm snapshot";
}

}  // namespace
}  // namespace socpower::dist
