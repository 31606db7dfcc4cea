// Heap allocations on the master's per-reaction path, on the gate-level
// reaction cache's miss path, and on the decode path of crafted wire frames.
//
// This file is its own test executable because it replaces the global
// operator new with one that counts calls and bytes. It runs the TCP/IP NIC
// system twice on
// one CoEstimator per acceleration mode and counts the allocations of the
// second run: by then the master's scratch (trigger grouping, merged
// inputs, pre-state, reaction, traffic, bus-wait slots, the per-core ready
// queues) and the HW batch pools have grown to the run's depth, so what is
// left is the work that really creates data (bus transfer payloads, new
// energy-cache entries, the per-run result vectors) plus the interconnect's
// by-value completion lists.
//
// The decoder cases feed frames whose declared lengths promise far more
// elements than their bytes hold. A decode must reject them having
// allocated no more than a small, fixed amount: what it allocates is
// bounded by the bytes it was given, not by a length field.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <ostream>
#include <string>

#if !defined(_WIN32)
#include <sys/socket.h>
#include <unistd.h>
#endif

#include "core/coestimator.hpp"
#include "dist/channel.hpp"
#include "dist/wire.hpp"
#include "hw/gatesim.hpp"
#include "hw/netlist.hpp"
#include "hw/reaction_cache.hpp"
#include "hwsyn/rtl.hpp"
#include "serve/checkpoint.hpp"
#include "systems/tcpip.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_allocated_bytes{0};

}  // namespace

// GCC flags free() of a pointer that came from operator new; here operator
// new itself is malloc-backed, so the pairing is right.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// The nothrow form too (std::stable_sort's temporary buffer uses it): left
// to the runtime, its pointer would reach the free() above, which
// AddressSanitizer reports as an allocation/deallocation mismatch.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace socpower::core {
namespace {

struct AllocCase {
  const char* name;
  Acceleration accel;
  /// Allocations per reaction of the second run, this test's code built
  /// against the master before its scratch buffers, flat job table and
  /// ready queues existed (same system and config, RelWithDebInfo build).
  double before;
};

// Keeps the ctest names free of the raw parameter bytes (`name` is a
// pointer, different in every build).
void PrintTo(const AllocCase& c, std::ostream* os) { *os << c.name; }

/// Allocations per reaction of the second of two runs on one estimator.
double second_run_allocations_per_reaction(Acceleration accel) {
  systems::TcpIpParams p;
  p.num_packets = 16;
  p.packet_bytes = 128;
  p.dma_block_size = 2;
  systems::TcpIpSystem sys(p);
  CoEstimatorConfig cfg;
  cfg.accel = accel;
  cfg.sync_spin = 0;
  cfg.cache_hit_spin = 0;
  CoEstimator est(&sys.network(), cfg);
  sys.configure(est);
  est.prepare();
  const sim::Stimulus stim = sys.stimulus();

  const RunResults first = est.run(stim);
  const std::uint64_t a0 = g_allocations.load();
  const RunResults second = est.run(stim);
  const std::uint64_t allocations = g_allocations.load() - a0;

  EXPECT_FALSE(second.truncated);
  EXPECT_EQ(second.reactions, first.reactions);
  EXPECT_EQ(second.total_energy, first.total_energy);
  EXPECT_EQ(sys.packets_ok(est), p.num_packets);
  EXPECT_GT(second.reactions, 0u);
  return static_cast<double>(allocations) /
         static_cast<double>(second.reactions);
}

class MasterAllocations : public ::testing::TestWithParam<AllocCase> {};

TEST_P(MasterAllocations, SecondRunAllocatesAQuarterOfTheOldPath) {
  const AllocCase& c = GetParam();
  const double now = second_run_allocations_per_reaction(c.accel);
  std::printf("[ alloc    ] %s: %.3f allocations per reaction (before: %.3f)\n",
              c.name, now, c.before);
  EXPECT_LE(now, c.before / 4.0);
}

// Allocations per reaction of the second run (2640 reactions, 1552 bus
// transfers), measured with this file on an x86-64 Linux RelWithDebInfo
// build:
//   mode         before   after
//   kNone        23.079   1.186
//   kCaching     23.083   1.190
//   kMacroModel  23.091   1.186
// What is left is about two allocations per bus transfer: its payload
// buffer (a BusRequest owns its bytes and the interconnect keeps them) and
// the completion vector BusBackend::advance() returns by value.
INSTANTIATE_TEST_SUITE_P(
    TcpIp, MasterAllocations,
    ::testing::Values(AllocCase{"none", Acceleration::kNone, 23.079},
                      AllocCase{"caching", Acceleration::kCaching, 23.083},
                      AllocCase{"macromodel", Acceleration::kMacroModel,
                                23.091}),
    [](const ::testing::TestParamInfo<AllocCase>& info) {
      return std::string(info.param.name);
    });

// ---- reaction-cache misses --------------------------------------------------

// A cold reaction table: a 16-bit accumulator fed fresh inputs, so nearly
// every step misses and inserts. The table grows its flat arrays by
// doubling and keeps them across generation clears, and takes toggle
// storage a block of many reactions at a time, so the allocations amortize
// to almost nothing per miss. A node-based table paid about three per
// miss: a map node, its key vector and its toggle vector.
TEST(ReactionCacheAlloc, ColdMissesAllocateAlmostNothing) {
  hw::Netlist nl;
  hwsyn::RtlBuilder rtl(&nl);
  const hwsyn::Word in = rtl.input_word("in", 16);
  const hwsyn::Word acc = rtl.reg_word(0, 16);
  rtl.connect_reg(acc, rtl.add(acc, rtl.word_xor(in, acc)));
  for (const hw::NetId q : acc) nl.mark_output(q, "acc");
  hw::GateSim sim(&nl);
  // 1024 entries: the 3000-step stream clears the table twice.
  hw::ReactionCache cache(&sim, {},
                          std::make_shared<hw::ReactionTable>(nl, 1024));
  Rng rng(5);

  const std::uint64_t a0 = g_allocations.load();
  for (int step = 0; step < 3000; ++step) {
    sim.set_input_word(0, rng.next(), 16);
    (void)cache.step();
  }
  const std::uint64_t allocations = g_allocations.load() - a0;

  const hw::ReactionCacheStats& s = cache.stats();
  EXPECT_GE(s.misses, 2900u);
  EXPECT_EQ(s.capacity_clears, 2u);
  const double per_miss =
      static_cast<double>(allocations) / static_cast<double>(s.misses);
  std::printf("[ alloc    ] reaction cache: %llu allocations for %llu misses "
              "(%.4f per miss)\n",
              static_cast<unsigned long long>(allocations),
              static_cast<unsigned long long>(s.misses), per_miss);
  EXPECT_LE(per_miss, 0.05);
}

// ---- crafted frames --------------------------------------------------------

/// What decoding one crafted frame may allocate.
constexpr std::uint64_t kDecodeAllocBound = 64 * 1024;

/// Bytes allocated while `f` runs.
template <class F>
std::uint64_t bytes_allocated(F&& f) {
  const std::uint64_t b0 = g_allocated_bytes.load();
  f();
  return g_allocated_bytes.load() - b0;
}

// A 16-byte kEnqueueChunk payload that declares 2^21 batch entries and holds
// none. Sizing the entry vector from that count would allocate 128 MiB.
TEST(DistWireAlloc, CraftedChunkEntryCountIsRejectedCheaply) {
  dist::WireWriter w;
  w.i32(0);         // task
  w.u32(0);         // base_paths
  w.u32(0);         // new_paths: none
  w.u32(1u << 21);  // entries: 2^21 declared, none present
  ASSERT_EQ(w.bytes().size(), 16u);
  bool ok = true;
  const std::uint64_t bytes = bytes_allocated([&] {
    dist::WireReader r(w.bytes());
    dist::ChunkPayload chunk;
    ok = dist::decode(r, &chunk);
  });
  EXPECT_FALSE(ok);
  EXPECT_LE(bytes, kDecodeAllocBound);
}

#if !defined(_WIN32)
// A frame header that declares a 1 GiB payload, from a peer that then hangs
// up. Sizing the payload buffer from the header would allocate 1 GiB for 5
// bytes, on any serve connection.
TEST(DistWireAlloc, DeclaredFrameLengthIsNotAllocatedAhead) {
  if (!dist::supported()) GTEST_SKIP() << "no socketpair";
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  dist::Channel rx = dist::Channel::adopt(sv[0]);
  const std::uint8_t header[5] = {0, 0, 0, 0x40,  // payload_len = 2^30
                                  static_cast<std::uint8_t>(
                                      dist::MsgType::kServeOpen)};
  ASSERT_EQ(::write(sv[1], header, sizeof header), 5);
  ::close(sv[1]);
  dist::Channel::RecvStatus st = dist::Channel::RecvStatus::kOk;
  const std::uint64_t bytes = bytes_allocated([&] {
    dist::Frame f;
    st = rx.recv_frame(&f, /*timeout_ms=*/1000);
  });
  EXPECT_EQ(st, dist::Channel::RecvStatus::kClosed);
  EXPECT_LE(bytes, kDecodeAllocBound);
}
#endif

// A serve kServeOpen system block that declares 2^24 parameters (640 MiB of
// key/value slots if reserved from the count).
TEST(ServeAlloc, CraftedSystemKeyCountIsRejectedCheaply) {
  dist::WireWriter w;
  w.string("tcpip");
  w.u32(1u << 24);  // key/value pairs: 2^24 declared, none present
  bool ok = true;
  const std::uint64_t bytes = bytes_allocated([&] {
    dist::WireReader r(w.bytes());
    serve::SystemParams system;
    ok = dist::decode(r, &system);
  });
  EXPECT_FALSE(ok);
  EXPECT_LE(bytes, kDecodeAllocBound);
}

// A checkpoint with a valid header and hash whose warm snapshot declares
// 2^24 backends and holds none (145 bytes): 1.5 GiB of backend slots if
// sized from the count. The serve daemon decodes such blobs from any client
// (kServeRestore).
TEST(CheckpointAlloc, CraftedBackendCountIsRejectedCheaply) {
  dist::WireWriter payload;
  serve::SystemParams system;
  system.name = "tcpip";
  dist::encode(payload, system);
  dist::encode(payload, serve::StructuralConfig{});
  payload.u32(1u << 24);  // warm backends: 2^24 declared, none present
  dist::WireWriter blob;
  blob.u32(serve::kCheckpointMagic);
  blob.u32(serve::kCheckpointVersion);
  blob.u64(payload.bytes().size());
  blob.u64(util::fnv1a64(payload.bytes()));  // the SPCK payload hash
  std::vector<std::uint8_t> bytes = blob.take();
  bytes.insert(bytes.end(), payload.bytes().begin(), payload.bytes().end());

  bool ok = true;
  std::string error;
  const std::uint64_t allocated = bytes_allocated([&] {
    serve::Checkpoint c;
    ok = serve::decode_checkpoint(bytes, &c, &error);
  });
  EXPECT_FALSE(ok);
  EXPECT_NE(error.find("payload decode failed"), std::string::npos) << error;
  EXPECT_LE(allocated, kDecodeAllocBound);
}

}  // namespace
}  // namespace socpower::core
