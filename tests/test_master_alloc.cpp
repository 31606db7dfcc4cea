// Heap allocations on the master's per-reaction path.
//
// This file is its own test executable because it replaces the global
// operator new with a counting one. It runs the TCP/IP NIC system twice on
// one CoEstimator per acceleration mode and counts the allocations of the
// second run: by then the master's scratch (trigger grouping, merged
// inputs, pre-state, reaction, traffic, bus-wait slots, the per-core ready
// queues) and the HW batch pools have grown to the run's depth, so what is
// left is the work that really creates data (bus transfer payloads, new
// energy-cache entries, the per-run result vectors) plus the interconnect's
// by-value completion lists.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <ostream>
#include <string>

#include "core/coestimator.hpp"
#include "systems/tcpip.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

// GCC flags free() of a pointer that came from operator new; here operator
// new itself is malloc-backed, so the pairing is right.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
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

}  // namespace
}  // namespace socpower::core
