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
        c.path = static_cast<cfsm::PathId>(rng() % 50);
        c.now = rng();
        c.inputs = random_inputs(rng);
        for (unsigned i = 0; i < rng() % 4; ++i)
          c.reaction.emissions.push_back(
              {static_cast<cfsm::EventId>(rng() % 16),
               static_cast<std::int32_t>(rng())});
        c.reaction.trace = random_trace(rng);
        c.post_state = random_state(rng);
        WireWriter w;
        put_cost(w, c);
        WireReader r(w.bytes());
        CostPayload back;
        ASSERT_TRUE(get_cost(r, &back));
        ASSERT_TRUE(r.at_end());
        EXPECT_EQ(c.task, back.task);
        EXPECT_EQ(c.path, back.path);
        EXPECT_EQ(c.now, back.now);
        expect_inputs_equal(c.inputs, back.inputs);
        ASSERT_EQ(c.reaction.emissions.size(), back.reaction.emissions.size());
        for (std::size_t i = 0; i < c.reaction.emissions.size(); ++i) {
          EXPECT_EQ(c.reaction.emissions[i].event,
                    back.reaction.emissions[i].event);
          EXPECT_EQ(c.reaction.emissions[i].value,
                    back.reaction.emissions[i].value);
        }
        EXPECT_EQ(c.reaction.trace, back.reaction.trace);
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
      // Per-run knobs.
      {
        PerRunKnobs k;
        k.sync_spin = static_cast<unsigned>(rng());
        k.hw_reaction_cycles = static_cast<unsigned>(rng() % 100);
        k.verify_lowlevel = rng() % 2 == 0;
        k.hw_reaction_cache = rng() % 2 == 0;
        k.hw_reaction_cache_max_entries = rng();
        WireWriter w;
        put_knobs(w, k);
        WireReader r(w.bytes());
        PerRunKnobs back;
        ASSERT_TRUE(get_knobs(r, &back));
        ASSERT_TRUE(r.at_end());
        EXPECT_EQ(k.sync_spin, back.sync_spin);
        EXPECT_EQ(k.hw_reaction_cycles, back.hw_reaction_cycles);
        EXPECT_EQ(k.verify_lowlevel, back.verify_lowlevel);
        EXPECT_EQ(k.hw_reaction_cache, back.hw_reaction_cache);
        EXPECT_EQ(k.hw_reaction_cache_max_entries,
                  back.hw_reaction_cache_max_entries);
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
  cost.post_state = random_state(rng);
  WireWriter wc;
  put_cost(wc, cost);
  for (std::size_t cut = 0; cut < wc.bytes().size(); ++cut) {
    WireReader r(wc.bytes().data(), cut);
    CostPayload out;
    EXPECT_FALSE(get_cost(r, &out) && r.at_end());
  }
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
