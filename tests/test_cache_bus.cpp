// Cache simulator and bus/arbiter model tests.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "bus/bus_model.hpp"
#include "bus_drain.hpp"
#include "cache/cache_sim.hpp"

namespace socpower {
namespace {

using cache::CacheConfig;
using cache::CacheSim;

TEST(CacheSim, ColdMissThenHit) {
  CacheSim c;
  EXPECT_FALSE(c.access(0x100));
  EXPECT_TRUE(c.access(0x100));
  EXPECT_TRUE(c.access(0x104));  // same 16-byte line
  EXPECT_FALSE(c.access(0x110)); // next line
  EXPECT_EQ(c.totals().misses, 2u);
  EXPECT_EQ(c.totals().accesses, 4u);
}

TEST(CacheSim, DirectMappedConflict) {
  CacheConfig cfg;
  cfg.size_bytes = 256;
  cfg.line_bytes = 16;
  cfg.associativity = 1;  // 16 sets
  CacheSim c(cfg);
  EXPECT_FALSE(c.access(0x000));
  EXPECT_FALSE(c.access(0x100));  // same set, different tag: evicts
  EXPECT_FALSE(c.access(0x000));  // conflict miss
}

TEST(CacheSim, TwoWayAssociativityRemovesConflict) {
  CacheConfig cfg;
  cfg.size_bytes = 256;
  cfg.line_bytes = 16;
  cfg.associativity = 2;
  CacheSim c(cfg);
  EXPECT_FALSE(c.access(0x000));
  EXPECT_FALSE(c.access(0x100));
  EXPECT_TRUE(c.access(0x000));  // both fit
  EXPECT_TRUE(c.access(0x100));
}

TEST(CacheSim, LruEviction) {
  CacheConfig cfg;
  cfg.size_bytes = 32;
  cfg.line_bytes = 16;
  cfg.associativity = 2;  // a single set of two ways
  CacheSim c(cfg);
  c.access(0x00);   // A miss
  c.access(0x10);   // B miss
  c.access(0x00);   // A hit (B becomes LRU)
  c.access(0x20);   // C miss, evicts B
  EXPECT_TRUE(c.access(0x00));
  EXPECT_FALSE(c.access(0x10));  // B was evicted
}

TEST(CacheSim, MissPenaltyAndEnergyAccumulate) {
  CacheConfig cfg;
  cfg.miss_penalty_cycles = 8;
  CacheSim c(cfg);
  const auto stats = c.access_stream(std::vector<std::uint32_t>{0, 64, 128});
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.penalty_cycles, 24u);
  EXPECT_GT(stats.energy, 0.0);
  EXPECT_DOUBLE_EQ(stats.miss_rate(), 1.0);
}

TEST(CacheSim, StreamStatsAreDeltaNotTotals) {
  CacheSim c;
  c.access(0);
  const auto s = c.access_stream(std::vector<std::uint32_t>{0});
  EXPECT_EQ(s.accesses, 1u);
  EXPECT_EQ(s.misses, 0u);
  EXPECT_EQ(c.totals().accesses, 2u);
}

TEST(CacheSim, FlushColdRestart) {
  CacheSim c;
  c.access(0x40);
  c.flush();
  EXPECT_FALSE(c.access(0x40));
}

TEST(CacheSim, HighLocalityLoopMostlyHits) {
  CacheSim c;
  std::vector<std::uint32_t> loop;
  for (int rep = 0; rep < 50; ++rep)
    for (std::uint32_t a = 0; a < 256; a += 4) loop.push_back(a);
  const auto s = c.access_stream(loop);
  EXPECT_LT(s.miss_rate(), 0.01);
}

// --- bus --------------------------------------------------------------------

bus::BusParams small_bus() {
  bus::BusParams p;
  p.line_cap_f = 1e-9;
  p.handshake_cycles = 2;
  p.dma_block_size = 4;
  return p;
}

bus::BusRequest req(int master, int prio, std::vector<std::uint8_t> data,
                    std::uint32_t addr = 0) {
  bus::BusRequest r;
  r.master = master;
  r.priority = prio;
  r.addr = addr;
  r.data = std::move(data);
  return r;
}

TEST(Bus, GrantCountFollowsDmaBlockSize) {
  bus::BusScheduler bus(small_bus());
  const auto r =
      transfer_one(bus, 0, req(0, 0, std::vector<std::uint8_t>(10, 0)));
  EXPECT_EQ(r.grants, 3u);  // ceil(10/4)
  EXPECT_EQ(r.busy_cycles, 3u * 2 + 10u);  // 3 handshakes + 10 beats
}

TEST(Bus, LargerDmaFewerGrantsLessEnergy) {
  auto p = small_bus();
  p.dma_block_size = 2;
  bus::BusScheduler fine(p);
  p.dma_block_size = 16;
  bus::BusScheduler coarse(p);
  const std::vector<std::uint8_t> data(16, 0xAA);
  const auto rf = transfer_one(fine, 0, req(0, 0, data));
  const auto rc = transfer_one(coarse, 0, req(0, 0, data));
  EXPECT_GT(rf.grants, rc.grants);
  EXPECT_GT(rf.energy, rc.energy);
  EXPECT_GT(rf.busy_cycles, rc.busy_cycles);
}

TEST(Bus, SwitchingActivityFollowsHammingDistance) {
  // Alternating 0x00/0xFF toggles all 8 data lines per beat; constant data
  // toggles none after the first beat.
  auto p = small_bus();
  p.dma_block_size = 64;
  bus::BusScheduler b1(p);
  std::vector<std::uint8_t> alternating;
  for (int i = 0; i < 32; ++i)
    alternating.push_back(i % 2 ? 0xFF : 0x00);
  const auto ra = transfer_one(b1, 0, req(0, 0, alternating));
  bus::BusScheduler b2(p);
  const auto rc =
      transfer_one(b2, 0, req(0, 0, std::vector<std::uint8_t>(32, 0x00)));
  EXPECT_GT(ra.energy, rc.energy);
  EXPECT_GT(b1.totals().data_toggles, b2.totals().data_toggles);
}

TEST(Bus, EnergyScalesWithLineCapacitance) {
  auto p = small_bus();
  bus::BusScheduler b1(p);
  p.line_cap_f *= 10;
  bus::BusScheduler b10(p);
  const std::vector<std::uint8_t> data = {0xFF, 0x00, 0xFF, 0x00};
  const auto e1 = transfer_one(b1, 0, req(0, 0, data)).energy;
  const auto e10 = transfer_one(b10, 0, req(0, 0, data)).energy;
  EXPECT_NEAR(e10 / e1, 10.0, 1e-9);
}

TEST(Bus, PriorityOrdersSimultaneousRequests) {
  bus::BusScheduler bus(small_bus());
  const auto results = transfer_all(
      bus, 100,
      {req(0, /*prio=*/1, std::vector<std::uint8_t>(4, 0)),
       req(1, /*prio=*/5, std::vector<std::uint8_t>(4, 0))});
  // Master 1 (higher priority) goes first.
  EXPECT_EQ(results[1].start, 100u);
  EXPECT_EQ(results[1].wait_cycles, 0u);
  EXPECT_GT(results[0].start, results[1].start);
  EXPECT_EQ(results[0].start, results[1].end);
}

TEST(Bus, TiesBrokenByMasterId) {
  bus::BusScheduler bus(small_bus());
  const auto results = transfer_all(bus, 0, {req(7, 3, {1}), req(2, 3, {1})});
  EXPECT_LT(results[1].start, results[0].start);  // master 2 first
}

TEST(Bus, EmptyPayloadStillPaysOneHandshake) {
  bus::BusScheduler bus(small_bus());
  const auto r = transfer_one(bus, 0, req(0, 0, {}));
  EXPECT_EQ(r.grants, 1u);
  EXPECT_EQ(r.busy_cycles, 2u);
  EXPECT_GT(r.energy, 0.0);  // control-line toggles
}

TEST(Bus, TotalsAccumulateAndReset) {
  bus::BusScheduler bus(small_bus());
  transfer_one(bus, 0, req(0, 0, std::vector<std::uint8_t>(6, 0x5A)));
  transfer_one(bus, 10, req(1, 0, std::vector<std::uint8_t>(2, 0xA5)));
  EXPECT_EQ(bus.totals().transfers, 2u);
  EXPECT_EQ(bus.totals().bytes, 8u);
  EXPECT_GT(bus.totals().energy, 0.0);
  bus.reset();
  EXPECT_EQ(bus.totals().transfers, 0u);
  EXPECT_EQ(bus.totals().bytes, 0u);
  EXPECT_FALSE(bus.has_work());
}

TEST(Bus, GrantTimesRecordedWhenEnabled) {
  bus::BusScheduler bus(small_bus());
  bus.set_keep_grant_times(true);
  transfer_one(bus, 5, req(0, 0, std::vector<std::uint8_t>(10, 0)));
  ASSERT_EQ(bus.grant_times().size(), 3u);
  EXPECT_EQ(bus.grant_times()[0], 5u);
}

TEST(Bus, AddressWidthMasksActivity) {
  auto p = small_bus();
  p.addr_bits = 4;  // only 4 address lines exist
  bus::BusScheduler bus(p);
  transfer_one(bus, 0, req(0, 0, std::vector<std::uint8_t>(4, 0), 0xF0));
  // Address toggles bounded by 4 bits per beat.
  EXPECT_LE(bus.totals().addr_toggles, 4u * 4u);
}

}  // namespace
}  // namespace socpower
