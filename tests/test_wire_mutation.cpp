// Seeded mutation suites for every decoder of untrusted bytes: dist frames,
// SPCK checkpoints, and serve request/reply frames.
//
// Each suite builds a corpus of valid frames — encoded from a real TCP/IP
// serve session (its run results, request stats, checkpoint and config
// blocks) plus seeded payloads for the dist vocabulary — and feeds the
// decoders thousands of mutants made by four operators: byte flips,
// splices of two corpus frames, truncation, and length-field corruption (a
// little-endian u32 at a random offset overwritten with a hostile count).
//
// The invariant: every mutant either decodes or is rejected; nothing
// crashes or reads past the payload (the ASan/UBSan jobs run these suites),
// and a mutant that decodes re-encodes to a canonical frame that decodes
// back to the same bytes. Checkpoint mutants have their header resealed
// (length and FNV-1a hash recomputed), so the payload decoder — not the
// hash check — sees every corrupted byte.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "dist/wire.hpp"
#include "serve/checkpoint.hpp"
#include "serve/protocol.hpp"
#include "serve/session.hpp"
#include "util/hash.hpp"

namespace socpower::serve {
namespace {

using Bytes = std::vector<std::uint8_t>;

// Payload pieces that are not messages of their own on the wire.
struct Key {
  std::string s;
};
template <class Io, dist::MaybeConst<Key> M>
void fields(Io& io, M& k) {
  io.string(k.s);
}

struct RunKnobs {  // the kBeginRun payload
  core::CoEstimatorConfig cfg;
};
template <class Io, dist::MaybeConst<RunKnobs> M>
void fields(Io& io, M& k) {
  dist::knobs(io, k.cfg, core::KnobScope::kRun);
}

/// Decodes `bytes` as the messages Ms... filling the whole payload; on
/// success returns their re-encoding.
template <class... Ms>
std::optional<Bytes> reencode(const Bytes& bytes) {
  dist::WireReader r(bytes);
  std::tuple<Ms...> msgs;
  const bool ok = std::apply(
      [&](auto&... m) { return (dist::decode(r, &m) && ...); }, msgs);
  if (!ok || !r.at_end()) return std::nullopt;
  dist::WireWriter w;
  std::apply([&](const auto&... m) { (dist::encode(w, m), ...); }, msgs);
  return w.take();
}

template <class... Ms>
Bytes bytes_of(const Ms&... m) {
  dist::WireWriter w;
  (dist::encode(w, m), ...);
  return w.take();
}

/// One frame kind: its corpus and its decoder (nullopt = rejected).
struct Kind {
  const char* name;
  std::vector<Bytes> corpus;
  std::function<std::optional<Bytes>(const Bytes&)> decode;
};

Bytes mutate(const Bytes& frame, const std::vector<Bytes>& corpus,
             std::mt19937_64& rng) {
  Bytes m = frame;
  switch (rng() % 4) {
    case 0: {  // byte flips
      const unsigned flips = 1 + static_cast<unsigned>(rng() % 4);
      for (unsigned i = 0; i < flips && !m.empty(); ++i)
        m[rng() % m.size()] ^= static_cast<std::uint8_t>(1 + rng() % 255);
      break;
    }
    case 1: {  // splice: a prefix of this frame, a suffix of another
      const Bytes& other = corpus[rng() % corpus.size()];
      m.resize(m.empty() ? 0 : rng() % (m.size() + 1));
      const std::size_t from = other.empty() ? 0 : rng() % (other.size() + 1);
      m.insert(m.end(), other.begin() + static_cast<std::ptrdiff_t>(from),
               other.end());
      break;
    }
    case 2:  // truncate
      m.resize(m.empty() ? 0 : rng() % m.size());
      break;
    default: {  // length-field corruption
      if (m.size() < 4) break;
      const std::size_t at = rng() % (m.size() - 3);
      std::uint32_t old = 0;
      for (int i = 0; i < 4; ++i)
        old |= static_cast<std::uint32_t>(m[at + static_cast<std::size_t>(i)])
               << (8 * i);
      const std::uint32_t hostile[] = {0xffffffffu, 0x7fffffffu, 1u << 24,
                                       1u << 21,    old + 1,     old - 1,
                                       static_cast<std::uint32_t>(m.size())};
      const std::uint32_t v = hostile[rng() % std::size(hostile)];
      for (int i = 0; i < 4; ++i)
        m[at + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(v >> (8 * i));
      break;
    }
  }
  return m;
}

struct Tally {
  int accepted = 0;
  int rejected = 0;
};

/// Runs `rounds` mutants of every corpus frame of `k` per seed and adds
/// the outcomes to `*t`.
void fuzz(const Kind& k, int rounds, Tally* t) {
  for (const Bytes& frame : k.corpus)
    ASSERT_TRUE(k.decode(frame).has_value()) << k.name << ": corpus frame";
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    std::mt19937_64 rng(seed);
    for (const Bytes& frame : k.corpus) {
      for (int i = 0; i < rounds; ++i) {
        const Bytes m = mutate(frame, k.corpus, rng);
        const std::optional<Bytes> canon = k.decode(m);
        if (!canon) {
          ++t->rejected;
          continue;
        }
        ++t->accepted;
        const std::optional<Bytes> again = k.decode(*canon);
        ASSERT_TRUE(again.has_value()) << k.name << " seed " << seed;
        EXPECT_EQ(*again, *canon) << k.name << " seed " << seed;
      }
    }
  }
}

void expect_both_outcomes(const Tally& t, const char* suite) {
  // A suite that only ever accepts (or only rejects) mutated nothing that
  // mattered.
  EXPECT_GT(t.accepted, 0) << suite;
  EXPECT_GT(t.rejected, 0) << suite;
  std::printf("[ mutants  ] %s: %d decoded, %d rejected\n", suite, t.accepted,
              t.rejected);
}

/// A real warm session: two runs of a small TCP/IP system, so its results,
/// stats and checkpoint carry real energies, reaction tables and energy
/// cache entries.
struct GoldenSession {
  SystemParams system;
  std::unique_ptr<Session> session;
  core::RunResults results;
  RequestStats stats;
  RunRequest request;
};

const GoldenSession& golden_session() {
  static const GoldenSession g = [] {
    GoldenSession s;
    s.system.name = "tcpip";
    s.system.set("num_packets", 2);
    s.system.set("packet_bytes", 32);
    std::string error;
    s.session = Session::create(s.system, StructuralConfig{}, &error);
    EXPECT_NE(s.session, nullptr) << error;
    s.request.config.accel = core::Acceleration::kCaching;
    s.request.config.energy_cache.thresh_variance = 0.5;
    for (int i = 0; i < 2; ++i)
      EXPECT_TRUE(s.session->estimate(s.request, &s.results, &s.stats, &error))
          << error;
    return s;
  }();
  return g;
}

// ---- dist frames -----------------------------------------------------------

cfsm::ReactionInputs seeded_inputs(std::mt19937_64& rng) {
  cfsm::ReactionInputs in;
  for (unsigned i = 0, n = rng() % 4; i < n; ++i)
    in.set(static_cast<cfsm::EventId>(rng() % 16),
           static_cast<std::int32_t>(rng()));
  return in;
}

cfsm::CfsmState seeded_state(std::mt19937_64& rng) {
  cfsm::CfsmState st;
  for (unsigned i = 0, n = rng() % 5; i < n; ++i)
    st.vars.push_back(static_cast<std::int32_t>(rng()));
  return st;
}

std::vector<cfsm::NodeId> seeded_trace(std::mt19937_64& rng) {
  std::vector<cfsm::NodeId> t;
  for (unsigned i = 0, n = rng() % 6; i < n; ++i)
    t.push_back(static_cast<cfsm::NodeId>(rng() % 100));
  return t;
}

TEST(DistWireMutation, SeededMutantsDecodeOrReject) {
  std::mt19937_64 rng(7);
  std::vector<Bytes> chunks, costs, flushes, models;
  for (int i = 0; i < 3; ++i) {
    dist::ChunkPayload c;
    c.task = static_cast<cfsm::CfsmId>(rng() % 4);
    c.base_paths = static_cast<std::uint32_t>(rng() % 10);
    for (unsigned p = 0, n = rng() % 3; p < n; ++p)
      c.new_paths.push_back(seeded_trace(rng));
    for (unsigned e = 0, n = 1 + rng() % 3; e < n; ++e)
      c.entries.push_back({rng(), seeded_inputs(rng),
                           static_cast<cfsm::PathId>(rng() % 8),
                           seeded_state(rng)});
    chunks.push_back(bytes_of(c));

    dist::CostPayload cost;
    cost.task = c.task;
    cost.inputs = seeded_inputs(rng);
    cost.reaction.emissions = {{static_cast<cfsm::EventId>(rng() % 16), 1}};
    cost.reaction.trace = seeded_trace(rng);
    cost.pre_state = seeded_state(rng);
    cost.post_state = seeded_state(rng);
    costs.push_back(bytes_of(cost));

    core::ComponentEstimator::FlushResult fr;
    fr.gate_cycles = rng();
    for (unsigned e = 0, n = 1 + rng() % 3; e < n; ++e)
      fr.entries.push_back({rng(), static_cast<cfsm::PathId>(rng() % 8),
                            static_cast<double>(rng() % 1000) * 1e-12});
    flushes.push_back(bytes_of(fr));

    hw::AnalyticalModel m;
    m.units.push_back({c.task, {1e-12, 2e-13, 3e-14, 4e-15}, 1e-9, 64, 1e-15});
    hw::AnalyticalCalibrationState pending;
    pending.task = c.task + 1;
    pending.moments.n = rng() % 100;
    m.pending.push_back(pending);
    models.push_back(bytes_of(m));
  }
  const GoldenSession& g = golden_session();
  const std::vector<Kind> kinds = {
      {"chunk", chunks, reencode<dist::ChunkPayload>},
      {"cost", costs, reencode<dist::CostPayload>},
      {"transition cost",
       {bytes_of(core::TransitionCost{12.0, 3e-12, true})},
       reencode<core::TransitionCost>},
      {"flush result", flushes,
       reencode<core::ComponentEstimator::FlushResult>},
      {"run results", {bytes_of(g.results)}, reencode<core::RunResults>},
      {"analytical model", models, reencode<hw::AnalyticalModel>},
      {"run knobs", {bytes_of(RunKnobs{g.request.config})},
       reencode<RunKnobs>},
  };
  Tally all;
  for (const Kind& k : kinds) fuzz(k, 200, &all);
  expect_both_outcomes(all, "dist frames");
}

// ---- checkpoints -----------------------------------------------------------

constexpr std::size_t kHeaderBytes = 24;

/// Header [magic][version][u64 payload_len][u64 fnv1a64] around `payload`.
Bytes seal(const Bytes& payload) {
  dist::WireWriter w;
  w.u32(kCheckpointMagic);
  w.u32(kCheckpointVersion);
  w.u64(payload.size());
  w.u64(util::fnv1a64(payload));
  Bytes out = w.take();
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

TEST(CheckpointMutation, ResealedMutantsDecodeOrReject) {
  const GoldenSession& g = golden_session();
  Checkpoint small;
  small.system = g.system;
  const std::vector<Bytes> blobs = {encode_checkpoint(g.session->checkpoint()),
                                    encode_checkpoint(small)};
  std::vector<Bytes> payloads;
  for (const Bytes& b : blobs) {
    ASSERT_EQ(seal(Bytes(b.begin() + kHeaderBytes, b.end())), b);
    payloads.emplace_back(b.begin() + kHeaderBytes, b.end());
  }
  // The mutants are payloads; every one is resealed before decoding, so the
  // only way to be rejected is the payload decoder.
  const Kind k{"checkpoint payload", payloads,
               [](const Bytes& payload) -> std::optional<Bytes> {
                 Checkpoint c;
                 std::string error;
                 if (!decode_checkpoint(seal(payload), &c, &error)) {
                   EXPECT_NE(error.find("payload decode failed"),
                             std::string::npos)
                       << error;
                   return std::nullopt;
                 }
                 const Bytes blob = encode_checkpoint(c);
                 return Bytes(blob.begin() + kHeaderBytes, blob.end());
               }};
  Tally all;
  fuzz(k, 100, &all);
  expect_both_outcomes(all, "checkpoints");
}

// ---- serve frames ----------------------------------------------------------

TEST(ServeMutation, RequestAndReplyFramesDecodeOrReject) {
  const GoldenSession& g = golden_session();
  StructuralConfig remote;
  remote.config.hw_remote = true;
  remote.config.cores = 4;
  remote.config.interconnect = core::InterconnectKind::kNoc;
  ServeStatsReply stats;
  stats.sessions = 1;
  stats.requests = 2;
  stats.latency_count = 2;
  stats.latency_mean_ms = 3.5;
  stats.rendered = "serve.requests 2\n";
  const std::vector<Kind> kinds = {
      {"open request",
       {bytes_of(g.system, StructuralConfig{}), bytes_of(g.system, remote)},
       reencode<SystemParams, StructuralConfig>},
      {"estimate request",
       {bytes_of(Key{g.session->key()}, g.request),
        bytes_of(Key{g.session->key()}, RunRequest{})},
       reencode<Key, RunRequest>},
      {"estimate reply",
       {bytes_of(g.results, g.stats)},
       reencode<core::RunResults, RequestStats>},
      {"session reply",
       {bytes_of(SessionReply{g.session->key(), true})},
       reencode<SessionReply>},
      {"stats reply", {bytes_of(stats)}, reencode<ServeStatsReply>},
      {"error reply", {bytes_of(Key{"unknown session 'x'"})}, reencode<Key>},
  };
  Tally all;
  for (const Kind& k : kinds) fuzz(k, 300, &all);
  expect_both_outcomes(all, "serve frames");
}

}  // namespace
}  // namespace socpower::serve
