// Checkpoint/restore correctness.
//
// The core contract: interrupting a session at ANY point — snapshot the
// warm state, rebuild a cold estimator in a child process, import, continue
// the workload — must reproduce the uninterrupted session's remaining
// results bit-identically (energies compared as IEEE-754 bit patterns).
// Fuzzed over seeds, system parameters, snapshot points, and a cycling mix
// of acceleration modes.
//
// Plus the rejection paths: wrong magic, unknown version, truncation,
// payload corruption (every failure mode with a distinct message), and an
// unknown-system checkpoint that decodes fine but cannot restore.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/estimators/hw_estimator.hpp"
#include "dist/wire.hpp"
#include "hwsyn/design.hpp"
#include "serve/checkpoint.hpp"
#include "serve/session.hpp"
#include "serve/system_factory.hpp"

#if !defined(_WIN32)
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace socpower::serve {
namespace {

/// The fuzz workload: six runs cycling through acceleration modes, with the
/// reaction cache on so there is real warm state to carry.
std::vector<RunRequest> workload() {
  std::vector<RunRequest> reqs;
  for (int i = 0; i < 6; ++i) {
    RunRequest rr;
    rr.config.accel = static_cast<core::Acceleration>(i % 4);  // none..sampling
    if (rr.config.accel == core::Acceleration::kCaching)
      rr.config.energy_cache.thresh_variance = 0.5;
    rr.config.hw_batch = i % 2 == 0;
    rr.config.hw_flush_threads = 1;
    reqs.push_back(rr);
  }
  return reqs;
}

SystemParams fuzz_system(std::uint64_t seed) {
  SystemParams sp;
  sp.name = "tcpip";
  sp.set("num_packets", 2 + static_cast<std::int64_t>(seed % 3));
  sp.set("packet_bytes", seed % 2 == 0 ? 32 : 64);
  sp.set("ip_check_in_hw", seed % 2 == 0 ? 1 : 0);
  sp.set("checksum_rtl_estimator", seed % 3 == 0 ? 1 : 0);
  sp.set("seed", static_cast<std::int64_t>(seed));
  return sp;
}

/// The result fields the continuation must reproduce, as raw bit patterns.
std::vector<std::uint64_t> result_bits(const core::RunResults& r) {
  return {std::bit_cast<std::uint64_t>(r.total_energy),
          std::bit_cast<std::uint64_t>(r.cpu_energy),
          std::bit_cast<std::uint64_t>(r.hw_energy),
          std::bit_cast<std::uint64_t>(r.bus_energy),
          std::bit_cast<std::uint64_t>(r.cache_energy),
          r.end_time,
          r.reactions,
          r.iss_invocations,
          r.iss_instructions,
          r.gate_sim_cycles,
          r.cache_hits_served};
}

#if !defined(_WIN32)
TEST(Checkpoint, MidWorkloadRestoreInChildIsBitIdentical) {
  if (!dist::supported()) GTEST_SKIP() << "no fork/socketpair";
  const std::vector<RunRequest> reqs = workload();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const SystemParams sp = fuzz_system(seed);
    const StructuralConfig sc;

    // Reference: the uninterrupted session.
    std::string error;
    std::unique_ptr<Session> ref = Session::create(sp, sc, &error);
    ASSERT_NE(ref, nullptr) << error;
    std::vector<std::vector<std::uint64_t>> ref_bits;
    for (const RunRequest& rr : reqs) {
      core::RunResults res;
      ASSERT_TRUE(ref->estimate(rr, &res, nullptr, &error)) << error;
      ref_bits.push_back(result_bits(res));
    }

    // Interrupted: run to `snap`, checkpoint, restore in a forked child,
    // run the remainder there, ship the raw bits back over a pipe.
    const std::size_t snap = 1 + seed % (reqs.size() - 1);
    std::unique_ptr<Session> hot = Session::create(sp, sc, &error);
    ASSERT_NE(hot, nullptr) << error;
    for (std::size_t i = 0; i < snap; ++i) {
      core::RunResults res;
      ASSERT_TRUE(hot->estimate(reqs[i], &res, nullptr, &error)) << error;
      EXPECT_EQ(result_bits(res), ref_bits[i]);
    }
    const std::vector<std::uint8_t> blob =
        encode_checkpoint(hot->checkpoint());

    int pipefd[2];
    ASSERT_EQ(::pipe(pipefd), 0);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      ::close(pipefd[0]);
      Checkpoint ckpt;
      std::string child_error;
      bool ok = decode_checkpoint(blob, &ckpt, &child_error);
      std::unique_ptr<Session> restored =
          ok ? Session::restore(ckpt, &child_error) : nullptr;
      ok = restored != nullptr;
      std::vector<std::uint64_t> out;
      for (std::size_t i = snap; ok && i < reqs.size(); ++i) {
        core::RunResults res;
        ok = restored->estimate(reqs[i], &res, nullptr, &child_error);
        if (ok)
          for (const std::uint64_t b : result_bits(res)) out.push_back(b);
      }
      const std::uint8_t flag = ok ? 1 : 0;
      (void)!::write(pipefd[1], &flag, 1);
      if (ok)
        (void)!::write(pipefd[1], out.data(), out.size() * sizeof out[0]);
      ::close(pipefd[1]);
      ::_exit(0);
    }
    ::close(pipefd[1]);
    std::uint8_t flag = 0;
    ASSERT_EQ(::read(pipefd[0], &flag, 1), 1);
    ASSERT_EQ(flag, 1) << "child failed to restore/continue";
    std::vector<std::uint64_t> expect;
    for (std::size_t i = snap; i < reqs.size(); ++i)
      for (const std::uint64_t b : ref_bits[i]) expect.push_back(b);
    std::vector<std::uint64_t> got(expect.size(), 0);
    std::size_t off = 0;
    const std::size_t want = got.size() * sizeof got[0];
    while (off < want) {
      const ssize_t n = ::read(
          pipefd[0], reinterpret_cast<std::uint8_t*>(got.data()) + off,
          want - off);
      ASSERT_GT(n, 0);
      off += static_cast<std::size_t>(n);
    }
    ::close(pipefd[0]);
    int status = 0;
    ::waitpid(pid, &status, 0);
    EXPECT_EQ(got, expect) << "restored continuation diverged";
  }
}
#endif

TEST(Checkpoint, RoundTripPreservesEveryField) {
  std::string error;
  const SystemParams sp = fuzz_system(2);
  const StructuralConfig sc;
  std::unique_ptr<Session> session = Session::create(sp, sc, &error);
  ASSERT_NE(session, nullptr) << error;
  RunRequest rr;
  rr.config.accel = core::Acceleration::kCaching;
  rr.config.energy_cache.thresh_variance = 0.5;
  core::RunResults res;
  ASSERT_TRUE(session->estimate(rr, &res, nullptr, &error)) << error;

  const Checkpoint before = session->checkpoint();
  const std::vector<std::uint8_t> blob = encode_checkpoint(before);
  Checkpoint after;
  ASSERT_TRUE(decode_checkpoint(blob, &after, &error)) << error;

  EXPECT_EQ(after.system.name, before.system.name);
  EXPECT_EQ(after.system.kv, before.system.kv);
  ASSERT_EQ(after.warm.backends.size(), before.warm.backends.size());
  for (std::size_t b = 0; b < before.warm.backends.size(); ++b) {
    EXPECT_EQ(after.warm.backends[b].block_entries,
              before.warm.backends[b].block_entries);
    ASSERT_EQ(after.warm.backends[b].reactions.size(),
              before.warm.backends[b].reactions.size());
    for (std::size_t u = 0; u < before.warm.backends[b].reactions.size();
         ++u) {
      const auto& bu = before.warm.backends[b].reactions[u];
      const auto& au = after.warm.backends[b].reactions[u];
      EXPECT_EQ(au.task, bu.task);
      ASSERT_EQ(au.entries.size(), bu.entries.size());
      for (std::size_t e = 0; e < bu.entries.size(); ++e) {
        EXPECT_EQ(au.entries[e].key, bu.entries[e].key);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(au.entries[e].energy),
                  std::bit_cast<std::uint64_t>(bu.entries[e].energy));
        EXPECT_EQ(au.entries[e].toggles, bu.entries[e].toggles);
        EXPECT_EQ(au.entries[e].latch_begin, bu.entries[e].latch_begin);
        EXPECT_EQ(au.entries[e].gate_evals, bu.entries[e].gate_evals);
      }
    }
  }
  ASSERT_EQ(after.warm.ecache.size(), before.warm.ecache.size());
  for (std::size_t i = 0; i < before.warm.ecache.size(); ++i) {
    EXPECT_EQ(after.warm.ecache[i].task, before.warm.ecache[i].task);
    EXPECT_EQ(after.warm.ecache[i].path, before.warm.ecache[i].path);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(after.warm.ecache[i].energy.mean),
              std::bit_cast<std::uint64_t>(before.warm.ecache[i].energy.mean));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(after.warm.ecache[i].energy.m2),
              std::bit_cast<std::uint64_t>(before.warm.ecache[i].energy.m2));
    EXPECT_EQ(after.warm.ecache[i].cycles.n, before.warm.ecache[i].cycles.n);
  }
  EXPECT_EQ(after.warm.ecache_hits, before.warm.ecache_hits);
  EXPECT_EQ(after.warm.ecache_simulations, before.warm.ecache_simulations);
}

TEST(Checkpoint, RejectsBadMagicVersionTruncationAndCorruption) {
  std::string error;
  std::unique_ptr<Session> session =
      Session::create(fuzz_system(1), StructuralConfig{}, &error);
  ASSERT_NE(session, nullptr) << error;
  const std::vector<std::uint8_t> good = encode_checkpoint(
      session->checkpoint());
  Checkpoint out;
  ASSERT_TRUE(decode_checkpoint(good, &out, &error)) << error;

  {  // bad magic
    std::vector<std::uint8_t> bad = good;
    bad[0] ^= 0xff;
    EXPECT_FALSE(decode_checkpoint(bad, &out, &error));
    EXPECT_NE(error.find("magic"), std::string::npos) << error;
  }
  {  // unknown version
    std::vector<std::uint8_t> bad = good;
    bad[4] = 0x7f;
    EXPECT_FALSE(decode_checkpoint(bad, &out, &error));
    EXPECT_NE(error.find("version"), std::string::npos) << error;
  }
  {  // v2, whose structural block still carried the ISS and RTOS knobs
    std::vector<std::uint8_t> bad = good;
    bad[4] = 2;
    EXPECT_FALSE(decode_checkpoint(bad, &out, &error));
    EXPECT_NE(error.find("version"), std::string::npos) << error;
  }
  {  // truncated: shorter than the header
    std::vector<std::uint8_t> bad(good.begin(), good.begin() + 10);
    EXPECT_FALSE(decode_checkpoint(bad, &out, &error));
    EXPECT_NE(error.find("truncated"), std::string::npos) << error;
  }
  {  // truncated: payload cut short
    std::vector<std::uint8_t> bad(good.begin(), good.end() - 7);
    EXPECT_FALSE(decode_checkpoint(bad, &out, &error));
    EXPECT_NE(error.find("truncated"), std::string::npos) << error;
  }
  {  // every single-byte payload corruption trips the hash
    for (const std::size_t at : {std::size_t{24}, good.size() / 2,
                                 good.size() - 1}) {
      std::vector<std::uint8_t> bad = good;
      bad[at] ^= 0x01;
      EXPECT_FALSE(decode_checkpoint(bad, &out, &error)) << "offset " << at;
      EXPECT_NE(error.find("hash"), std::string::npos) << error;
    }
  }
  {  // trailing garbage changes the length
    std::vector<std::uint8_t> bad = good;
    bad.push_back(0);
    EXPECT_FALSE(decode_checkpoint(bad, &out, &error));
    EXPECT_NE(error.find("length"), std::string::npos) << error;
  }
}

TEST(Checkpoint, CraftedReactionEntryIsDroppedOnRestore) {
  // The SPCK hash is an unkeyed FNV-1a, so a tampered payload can be
  // resealed. A reaction entry whose toggle list names a net outside the
  // netlist must be dropped at import, not replayed out of bounds by the
  // next cache hit.
  std::string error;
  std::unique_ptr<Session> session =
      Session::create(fuzz_system(2), StructuralConfig{}, &error);
  ASSERT_NE(session, nullptr) << error;
  const RunRequest rr;
  core::RunResults res;
  ASSERT_TRUE(session->estimate(rr, &res, nullptr, &error)) << error;
  const Checkpoint good = session->checkpoint();

  Checkpoint crafted = good;
  std::size_t backend = 0;
  while (backend < crafted.warm.backends.size() &&
         (crafted.warm.backends[backend].reactions.empty() ||
          crafted.warm.backends[backend].reactions[0].entries.empty()))
    ++backend;
  ASSERT_LT(backend, crafted.warm.backends.size()) << "no reaction entries";
  auto& entries = crafted.warm.backends[backend].reactions[0].entries;
  const std::size_t good_count = entries.size();
  entries[0].toggles.push_back(hw::NetId{1} << 28);

  Checkpoint decoded;
  ASSERT_TRUE(decode_checkpoint(encode_checkpoint(crafted), &decoded, &error))
      << error;  // encode_checkpoint reseals the hash
  std::unique_ptr<Session> restored = Session::restore(decoded, &error);
  ASSERT_NE(restored, nullptr) << error;
  EXPECT_EQ(restored->checkpoint()
                .warm.backends[backend]
                .reactions[0]
                .entries.size(),
            good_count - 1);

  // The restored session keeps serving, bit-identical to a clean restore.
  std::unique_ptr<Session> clean = Session::restore(good, &error);
  ASSERT_NE(clean, nullptr) << error;
  core::RunResults got, want;
  ASSERT_TRUE(restored->estimate(rr, &got, nullptr, &error)) << error;
  ASSERT_TRUE(clean->estimate(rr, &want, nullptr, &error)) << error;
  EXPECT_EQ(result_bits(got), result_bits(want));
}

/// Empties the reaction tables of `sp`'s hardware designs, which every
/// estimator of those designs in this process shares.
void clear_reaction_tables(const SystemParams& sp) {
  std::string error;
  const std::unique_ptr<SystemInstance> sys = make_system(sp, &error);
  ASSERT_NE(sys, nullptr) << error;
  core::CoEstimator est(&sys->network(), sys->config_template());
  sys->configure(est);
  est.prepare();
  for (const core::ComponentEstimator* b : est.backends())
    if (dynamic_cast<const core::HwEstimatorBase*>(b))
      for (const cfsm::CfsmId task : b->component_ids())
        hwsyn::shared_design(sys->network().cfsm(task),
                             est.config().electrical)
            ->reactions->clear();
}

TEST(Checkpoint, SessionsOfOneSystemShareReactionsAndRestoreMerges) {
  // Both sessions' hardware units view the same design's reaction table:
  // the second session's first request replays the first one's gate-level
  // reactions. Each checkpoint carries the reactions its own session met,
  // and a restore merges them into the restored session's import table;
  // here the two sessions met the same ones, so the bytes are equal.
  clear_reaction_tables(fuzz_system(4));
  std::string error;
  const RunRequest rr;
  std::unique_ptr<Session> first =
      Session::create(fuzz_system(4), StructuralConfig{}, &error);
  ASSERT_NE(first, nullptr) << error;
  core::RunResults first_res, second_res;
  RequestStats first_stats, second_stats;
  ASSERT_TRUE(first->estimate(rr, &first_res, &first_stats, &error)) << error;
  std::unique_ptr<Session> second =
      Session::create(fuzz_system(4), StructuralConfig{}, &error);
  ASSERT_NE(second, nullptr) << error;
  ASSERT_TRUE(second->estimate(rr, &second_res, &second_stats, &error))
      << error;
  EXPECT_EQ(result_bits(first_res), result_bits(second_res));
  EXPECT_LT(second_stats.warm_fills, first_stats.warm_fills);
  EXPECT_GT(second_stats.warm_hits, first_stats.warm_hits);

  const Checkpoint ckpt = first->checkpoint();
  const std::vector<std::uint8_t> bytes = encode_checkpoint(ckpt);
  std::unique_ptr<Session> restored = Session::restore(ckpt, &error);
  ASSERT_NE(restored, nullptr) << error;
  EXPECT_EQ(encode_checkpoint(restored->checkpoint()), bytes);
  EXPECT_EQ(encode_checkpoint(second->checkpoint()), bytes);
}

TEST(Checkpoint, ForgedReactionEnergyStaysInTheRestoredSession) {
  // The SPCK hash detects corruption, not tampering, so a checkpoint's
  // reaction entries may be forged while still fitting the netlist. They
  // must serve the restored session alone: a separate session of the same
  // design, on a table that lacks those keys, still matches its cache-off
  // result bit for bit.
  const SystemParams sp = fuzz_system(4);
  std::string error;
  RunRequest off;
  off.config.hw_reaction_cache = false;
  std::unique_ptr<Session> reference =
      Session::create(sp, StructuralConfig{}, &error);
  ASSERT_NE(reference, nullptr) << error;
  core::RunResults want;
  ASSERT_TRUE(reference->estimate(off, &want, nullptr, &error)) << error;

  clear_reaction_tables(sp);
  const RunRequest rr;
  std::unique_ptr<Session> donor =
      Session::create(sp, StructuralConfig{}, &error);
  ASSERT_NE(donor, nullptr) << error;
  core::RunResults res;
  ASSERT_TRUE(donor->estimate(rr, &res, nullptr, &error)) << error;
  Checkpoint forged = donor->checkpoint();
  std::size_t forged_entries = 0;
  for (core::BackendWarmState& b : forged.warm.backends)
    for (core::BackendWarmState::UnitReactions& u : b.reactions)
      for (hw::ExportedReaction& e : u.entries) {
        e.energy = 2.0 * e.energy + 1.0;
        ++forged_entries;
      }
  ASSERT_GT(forged_entries, 0u);
  donor.reset();
  clear_reaction_tables(sp);  // every forged key is now absent

  std::unique_ptr<Session> restored = Session::restore(forged, &error);
  ASSERT_NE(restored, nullptr) << error;
  ASSERT_TRUE(restored->estimate(rr, &res, nullptr, &error)) << error;
  std::unique_ptr<Session> other =
      Session::create(sp, StructuralConfig{}, &error);
  ASSERT_NE(other, nullptr) << error;
  core::RunResults got;
  ASSERT_TRUE(other->estimate(rr, &got, nullptr, &error)) << error;
  EXPECT_EQ(result_bits(got), result_bits(want));
  EXPECT_NE(result_bits(res), result_bits(want));  // the forgery did serve
}

TEST(Checkpoint, UnknownSystemDecodesButCannotRestore) {
  // A well-formed checkpoint whose system this build does not know: the
  // container layer accepts it, the session layer rejects it.
  Checkpoint c;
  c.system.name = "warp-drive";
  const std::vector<std::uint8_t> blob = encode_checkpoint(c);
  Checkpoint out;
  std::string error;
  ASSERT_TRUE(decode_checkpoint(blob, &out, &error)) << error;
  EXPECT_EQ(Session::restore(out, &error), nullptr);
  EXPECT_NE(error.find("unknown system"), std::string::npos) << error;
}

// ---- byte stability --------------------------------------------------------
//
// Checkpoints embed the structural block's bytes and sessions are keyed by a
// hash of them, so both must stay byte-identical across refactors: a checkpoint
// written by an older build has to restore under the same key. The expected
// values below were captured from the hand-written encoder that predates the
// config's knob table.

std::string hex(const std::vector<std::uint8_t>& bytes) {
  static const char* const kDigits = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 15]);
  }
  return out;
}

std::string structural_hex(const StructuralConfig& sc) {
  dist::WireWriter w;
  dist::encode(w, sc);
  return hex(w.bytes());
}

/// Every structural field moved off its default.
StructuralConfig every_structural_field_changed() {
  StructuralConfig sc;
  sc.config.electrical.vdd_volts = 1.8;
  sc.config.electrical.clock_hz = 250.0e6;
  sc.config.data_nj_per_toggle = 0.125;
  sc.config.estimators.sw = "sw.x";
  sc.config.estimators.hw_gate = "hw.gate.x";
  sc.config.estimators.hw_rtl = "hw.rtl.x";
  sc.config.estimators.cache = "cache.x";
  sc.config.estimators.bus = "bus.x";
  sc.config.estimators.noc = "noc.x";
  sc.config.hw_remote = true;
  sc.config.cores = 4;
  sc.config.interconnect = core::InterconnectKind::kNoc;
  sc.config.coherence.enabled = true;
  return sc;
}

TEST(Checkpoint, StructuralBytesAndSessionKeyAreStable) {
  SystemParams sp;
  sp.name = "tcpip";
  sp.set("num_packets", 3);

  const StructuralConfig plain;
  EXPECT_EQ(structural_hex(plain),
            "6666666666660a400000000084d7974100000000000000000600000073772e69"
            "73730700000068772e676174650600000068772e72746c0c0000006361636865"
            "2e6963616368650b0000006275732e61726269746572070000006275732e6e6f"
            "6300010000000000");
  EXPECT_EQ(session_key(sp, plain), "d6ce32eff8b49bd0");

  const StructuralConfig changed = every_structural_field_changed();
  EXPECT_EQ(structural_hex(changed),
            "cdccccccccccfc3f0000000065cdad41000000000000c03f0400000073772e78"
            "0900000068772e676174652e780800000068772e72746c2e7807000000636163"
            "68652e78050000006275732e78050000006e6f632e7801040000000101");
  EXPECT_EQ(session_key(sp, changed), "1e25dbfcc71b8b44");

  // The encoding decodes back to itself.
  dist::WireWriter w;
  dist::encode(w, changed);
  dist::WireReader r(w.bytes());
  StructuralConfig back;
  ASSERT_TRUE(dist::decode(r, &back));
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(structural_hex(back), structural_hex(changed));
}

TEST(Checkpoint, FileRoundTrip) {
  std::string error;
  std::unique_ptr<Session> session =
      Session::create(fuzz_system(3), StructuralConfig{}, &error);
  ASSERT_NE(session, nullptr) << error;
  const Checkpoint c = session->checkpoint();
  const std::string path = ::testing::TempDir() + "socpower_ckpt_test.bin";
  ASSERT_TRUE(write_checkpoint_file(path, c));
  Checkpoint out;
  ASSERT_TRUE(read_checkpoint_file(path, &out, &error)) << error;
  EXPECT_EQ(out.system.name, c.system.name);
  EXPECT_EQ(session_key(out.system, out.structural),
            session_key(c.system, c.structural));
  EXPECT_FALSE(read_checkpoint_file(path + ".missing", &out, &error));
}

}  // namespace
}  // namespace socpower::serve
