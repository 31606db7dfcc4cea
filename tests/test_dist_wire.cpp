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
  c.hw_reaction_cache_max_entries = rng();
  c.sync_spin = static_cast<unsigned>(rng());
  c.cache_hit_spin = static_cast<unsigned>(rng());
  c.energy_cache.thresh_variance = tricky_double(rng);
  c.energy_cache.thresh_iss_calls = rng();
  c.max_reactions = rng();
  c.hw_analytical_calibration_vectors = static_cast<unsigned>(rng());
  c.hw_leakage_nw_per_gate = tricky_double(rng);
  c.hw_temperature_k = tricky_double(rng);
  c.hw_channel_length_nm = tricky_double(rng);
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
  EXPECT_EQ(a.hw_reaction_cache_max_entries, b.hw_reaction_cache_max_entries);
  EXPECT_EQ(a.sync_spin, b.sync_spin);
  EXPECT_EQ(a.cache_hit_spin, b.cache_hit_spin);
  EXPECT_TRUE(bits_equal(a.energy_cache.thresh_variance,
                         b.energy_cache.thresh_variance));
  EXPECT_EQ(a.energy_cache.thresh_iss_calls, b.energy_cache.thresh_iss_calls);
  EXPECT_EQ(a.max_reactions, b.max_reactions);
  EXPECT_EQ(a.hw_analytical_calibration_vectors,
            b.hw_analytical_calibration_vectors);
  EXPECT_TRUE(bits_equal(a.hw_leakage_nw_per_gate, b.hw_leakage_nw_per_gate));
  EXPECT_TRUE(bits_equal(a.hw_temperature_k, b.hw_temperature_k));
  EXPECT_TRUE(bits_equal(a.hw_channel_length_nm, b.hw_channel_length_nm));
}

std::vector<std::uint8_t> run_block(const core::CoEstimatorConfig& cfg) {
  WireWriter w;
  put_knobs(w, cfg, core::KnobScope::kRun);
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
    w.put_f64(d);
    WireReader r(w.bytes());
    const double back = r.get_f64();
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
        put_chunk(w, c);
        WireReader r(w.bytes());
        ChunkPayload back;
        ASSERT_TRUE(get_chunk(r, &back));
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
        put_cost(w, c);
        WireReader r(w.bytes());
        CostPayload back;
        ASSERT_TRUE(get_cost(r, &back));
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
        put_flush_result(w, fr);
        WireReader r(w.bytes());
        core::ComponentEstimator::FlushResult back;
        ASSERT_TRUE(get_flush_result(r, &back));
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
        put_transition_cost(w, c);
        WireReader r(w.bytes());
        core::TransitionCost back;
        ASSERT_TRUE(get_transition_cost(r, &back));
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
        put_run_results(w, res);
        WireReader r(w.bytes());
        core::RunResults back;
        ASSERT_TRUE(get_run_results(r, &back));
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
        ASSERT_TRUE(get_knobs(r, &back, core::KnobScope::kRun));
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
  put_chunk(w, c);
  const std::vector<std::uint8_t>& full = w.bytes();
  ASSERT_FALSE(full.empty());
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    WireReader r(full.data(), cut);
    ChunkPayload out;
    const bool clean = get_chunk(r, &out) && r.at_end();
    EXPECT_FALSE(clean) << "prefix of length " << cut << " decoded cleanly";
  }

  CostPayload cost;
  cost.inputs = random_inputs(rng);
  cost.reaction.trace = random_trace(rng);
  cost.pre_state = random_state(rng);
  cost.post_state = random_state(rng);
  WireWriter wc;
  put_cost(wc, cost);
  for (std::size_t cut = 0; cut < wc.bytes().size(); ++cut) {
    WireReader r(wc.bytes().data(), cut);
    CostPayload out;
    EXPECT_FALSE(get_cost(r, &out) && r.at_end());
  }
}

TEST(DistWire, TruncatedRunBlocksAreRejected) {
  std::mt19937_64 rng(44);
  const std::vector<std::uint8_t> full = run_block(random_run_knobs(rng));
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    WireReader r(full.data(), cut);
    core::CoEstimatorConfig out;
    EXPECT_FALSE(get_knobs(r, &out, core::KnobScope::kRun))
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
  EXPECT_FALSE(get_knobs(r, &out, core::KnobScope::kRun));

  // Same byte inside a serve RunRequest: [u8 separate][run block].
  WireWriter w;
  serve::put_run_request(w, serve::RunRequest{});
  std::vector<std::uint8_t> request = w.take();
  request[1] = kBadAccel;
  WireReader rr(request);
  serve::RunRequest decoded;
  EXPECT_FALSE(serve::get_run_request(rr, &decoded));
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
  put_chunk(w, c);
  std::vector<std::uint8_t> bytes = w.bytes();
  bytes.push_back(0xAB);
  WireReader r(bytes);
  ChunkPayload out;
  // The payload itself still parses, but at_end() exposes the extra byte —
  // full-frame consumers require both.
  EXPECT_TRUE(get_chunk(r, &out));
  EXPECT_FALSE(r.at_end());
}

TEST(DistWire, CorruptLengthFieldDoesNotAllocate) {
  // A frame claiming 2^32-1 entries must be rejected by the element-size
  // sanity bound before any giant reserve happens.
  WireWriter w;
  w.put_i32(0);                    // task
  w.put_u32(0);                    // base_paths
  w.put_u32(0xFFFFFFFFu);          // new_paths length: absurd
  WireReader r(w.bytes());
  ChunkPayload out;
  EXPECT_FALSE(get_chunk(r, &out));
}

TEST(DistWire, ExpectsReplyMatchesProtocol) {
  EXPECT_TRUE(expects_reply(MsgType::kCost));
  EXPECT_TRUE(expects_reply(MsgType::kFlushUnit));
  EXPECT_TRUE(expects_reply(MsgType::kSeparateStep));
  EXPECT_TRUE(expects_reply(MsgType::kStats));
  EXPECT_TRUE(expects_reply(MsgType::kEvalPoint));
  EXPECT_FALSE(expects_reply(MsgType::kBeginRun));
  EXPECT_FALSE(expects_reply(MsgType::kEnqueueChunk));
  EXPECT_FALSE(expects_reply(MsgType::kShutdown));
  EXPECT_FALSE(expects_reply(MsgType::kReply));
}

}  // namespace
}  // namespace socpower::dist
