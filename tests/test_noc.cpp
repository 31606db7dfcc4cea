// Unit tests for the two multicore building blocks: the XY-routed mesh
// interconnect (bus::NocModel) and the directory-MSI coherent memory model
// (cache::CoherentMemoryModel). Both are exercised standalone here — the
// integrated behavior (through the co-simulation master) lives in
// test_multicore.cpp.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "bus/noc_model.hpp"
#include "cache/coherence.hpp"
#include "dist/wire.hpp"

namespace socpower {
namespace {

using bus::BusRequest;
using bus::NocModel;
using bus::NocParams;
using cache::CoherenceConfig;
using cache::CoherentMemoryModel;

NocParams mesh(unsigned cols, unsigned rows) {
  NocParams p;
  p.mesh_cols = cols;
  p.mesh_rows = rows;
  return p;
}

// ---- NoC routing ----------------------------------------------------------

TEST(Noc, XyRoutingGoesXFirstThenY) {
  // 3x3 mesh, node ids row-major:  0 1 2 / 3 4 5 / 6 7 8.
  NocModel noc(mesh(3, 3));
  // 0 -> 8: X to column 2 (0->1->2), then Y down (2->5->8).
  const std::vector<std::pair<unsigned, unsigned>> want = {
      {0, 1}, {1, 2}, {2, 5}, {5, 8}};
  EXPECT_EQ(noc.route(0, 8), want);
  // 7 -> 3: X left (7->6), then Y up (6->3).
  const std::vector<std::pair<unsigned, unsigned>> want2 = {{7, 6}, {6, 3}};
  EXPECT_EQ(noc.route(7, 3), want2);
  // Self-route is empty.
  EXPECT_TRUE(noc.route(4, 4).empty());
}

TEST(Noc, MastersMapModuloNodesAndMemoryDefaultsToLastNode) {
  NocParams p = mesh(2, 2);
  EXPECT_EQ(p.resolved_memory_node(), 3u);
  NocModel noc(p);
  EXPECT_EQ(noc.master_node(0), 0u);
  EXPECT_EQ(noc.master_node(5), 1u);  // 5 % 4
  p.memory_node = 2;
  EXPECT_EQ(p.resolved_memory_node(), 2u);
}

TEST(Noc, TransferBillsEnergyOnEveryTraversedLink) {
  NocModel noc(mesh(2, 2));
  // Master 0 (node 0) writes to memory (node 3): route 0->1->3, 2 links.
  const auto id = noc.submit(0, BusRequest{.master = 0,
                                           .priority = 0,
                                           .write = true,
                                           .addr = 0x100,
                                           .data = {0xff, 0x00, 0xff, 0x00}});
  EXPECT_GT(id, 0u);
  ASSERT_TRUE(noc.has_work());
  const auto done = noc.advance(noc.next_boundary());
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].master, 0);
  EXPECT_GT(done[0].result.energy, 0.0);

  unsigned active_links = 0;
  for (const NocModel::LinkStats& l : noc.links()) {
    if (l.packets == 0) continue;
    ++active_links;
    EXPECT_GT(l.flits, 0u);
    EXPECT_GT(l.energy, 0.0);
    EXPECT_FALSE(NocModel::link_name(l).empty());
  }
  EXPECT_EQ(active_links, 2u);
  EXPECT_EQ(noc.totals().transfers, 1u);
  EXPECT_GT(noc.totals().energy, 0.0);
}

TEST(Noc, ReadBillsTheReplyPathToo) {
  // Same route, one write vs one read of the same payload size: the read
  // additionally carries the reply packet back, so it touches more links.
  auto run = [](bool write) {
    NocModel noc(mesh(2, 2));
    const BusRequest rq{.master = 0,
                        .priority = 0,
                        .write = write,
                        .addr = 0x40,
                        .data = std::vector<std::uint8_t>(8, 0xaa)};
    (void)noc.submit(0, rq);
    (void)noc.advance(noc.next_boundary());
    std::uint64_t flits = 0;
    for (const NocModel::LinkStats& l : noc.links()) flits += l.flits;
    return flits;
  };
  EXPECT_GT(run(/*write=*/false), run(/*write=*/true));
}

TEST(Noc, SharedLinkContentionSerializesPackets) {
  // Masters 0 (node 0) and 1 (node 1) both target memory at node 3; both
  // routes share the link 1->3. Submitted at the same instant, one packet
  // must queue behind the other — strictly later completion.
  NocModel noc(mesh(2, 2));
  const BusRequest a{.master = 0,
                     .priority = 0,
                     .write = true,
                     .addr = 0x0,
                     .data = std::vector<std::uint8_t>(16, 0x55)};
  BusRequest b = a;
  b.master = 1;
  (void)noc.submit(0, a);
  (void)noc.submit(0, b);
  std::vector<std::uint64_t> done_at;
  while (noc.has_work()) {
    const std::uint64_t t = noc.next_boundary();
    for (const auto& c : noc.advance(t)) {
      done_at.push_back(t);
      EXPECT_GE(c.result.wait_cycles + 1, 0u);
    }
  }
  ASSERT_EQ(done_at.size(), 2u);
  EXPECT_NE(done_at[0], done_at[1]);
  std::uint64_t waits = noc.totals().wait_cycles;
  EXPECT_GT(waits, 0u);
}

TEST(Noc, ResetClearsRunStateAndTotals) {
  NocModel noc(mesh(2, 2));
  const BusRequest rq{.master = 0,
                      .priority = 0,
                      .write = true,
                      .addr = 0x10,
                      .data = std::vector<std::uint8_t>(4, 0x0f)};
  (void)noc.submit(0, rq);
  (void)noc.advance(noc.next_boundary());
  ASSERT_GT(noc.totals().transfers, 0u);
  noc.reset();
  EXPECT_EQ(noc.totals().transfers, 0u);
  EXPECT_EQ(noc.totals().energy, 0.0);
  for (const NocModel::LinkStats& l : noc.links())
    EXPECT_EQ(l.packets, 0u);
  EXPECT_FALSE(noc.has_work());
}

TEST(Noc, DeterministicAcrossIdenticalRuns) {
  auto run = [] {
    NocModel noc(mesh(3, 2));
    for (int m = 0; m < 4; ++m) {
      const BusRequest rq{
          .master = m,
          .priority = 0,
          .write = (m % 2) == 0,
          .addr = static_cast<std::uint32_t>(0x100 * m),
          .data = std::vector<std::uint8_t>(
              static_cast<std::size_t>(8 + m),
              static_cast<std::uint8_t>(0x11 * m))};
      (void)noc.submit(static_cast<std::uint64_t>(m), rq);
    }
    while (noc.has_work()) (void)noc.advance(noc.next_boundary());
    return noc.totals();
  };
  const bus::BusTotals a = run();
  const bus::BusTotals b = run();
  EXPECT_EQ(a.transfers, b.transfers);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.data_toggles, b.data_toggles);
  EXPECT_EQ(a.wait_cycles, b.wait_cycles);
  EXPECT_EQ(a.energy, b.energy);
}

// ---- MSI coherence --------------------------------------------------------

CoherenceConfig small_l1() {
  CoherenceConfig cfg;
  cfg.enabled = true;
  cfg.l1.size_bytes = 256;
  cfg.l1.line_bytes = 16;
  cfg.l1.associativity = 2;
  return cfg;
}

TEST(Coherence, ReadMissThenHitAndSharedState) {
  CoherentMemoryModel mem(small_l1(), 2);
  const auto miss = mem.access(0, /*write=*/false, 0x1000, 4);
  EXPECT_GT(miss.penalty_cycles, 0u);
  EXPECT_TRUE(miss.traffic.empty());  // clean read: no control messages
  const auto hit = mem.access(0, false, 0x1004, 4);  // same line
  EXPECT_EQ(hit.penalty_cycles, 0u);
  EXPECT_EQ(mem.state(0, 0x1000), CoherentMemoryModel::LineState::kShared);
  EXPECT_EQ(mem.state(1, 0x1000), CoherentMemoryModel::LineState::kInvalid);
  EXPECT_EQ(mem.totals().accesses, 2u);
  EXPECT_EQ(mem.totals().l1_hits, 1u);
  EXPECT_EQ(mem.totals().l1_misses, 1u);
}

TEST(Coherence, WriteInvalidatesRemoteSharers) {
  CoherentMemoryModel mem(small_l1(), 3);
  (void)mem.access(0, false, 0x2000, 4);
  (void)mem.access(1, false, 0x2000, 4);
  ASSERT_EQ(mem.state(1, 0x2000), CoherentMemoryModel::LineState::kShared);
  // Core 2 writes: both remote Shared copies drop, writer goes Modified.
  const auto w = mem.access(2, /*write=*/true, 0x2000, 4);
  EXPECT_EQ(w.invalidations, 2u);
  EXPECT_FALSE(w.traffic.empty());
  EXPECT_EQ(mem.state(0, 0x2000), CoherentMemoryModel::LineState::kInvalid);
  EXPECT_EQ(mem.state(1, 0x2000), CoherentMemoryModel::LineState::kInvalid);
  EXPECT_EQ(mem.state(2, 0x2000), CoherentMemoryModel::LineState::kModified);
  EXPECT_EQ(mem.totals().invalidations, 2u);
}

TEST(Coherence, UpgradeOnWriteHitToSharedLine) {
  CoherentMemoryModel mem(small_l1(), 2);
  (void)mem.access(0, false, 0x3000, 4);
  (void)mem.access(1, false, 0x3000, 4);
  const auto up = mem.access(0, /*write=*/true, 0x3000, 4);
  EXPECT_EQ(up.invalidations, 1u);
  EXPECT_EQ(mem.state(0, 0x3000), CoherentMemoryModel::LineState::kModified);
  EXPECT_EQ(mem.totals().upgrades, 1u);
}

TEST(Coherence, DirtyFetchForcesWritebackAndStall) {
  CoherenceConfig cfg = small_l1();
  CoherentMemoryModel mem(cfg, 2);
  (void)mem.access(0, /*write=*/true, 0x4000, 4);  // core 0 owns Modified
  const auto rd = mem.access(1, /*write=*/false, 0x4000, 4);
  EXPECT_EQ(rd.writebacks, 1u);
  // Miss penalty plus the dirty-fetch stall.
  EXPECT_GE(rd.penalty_cycles,
            cfg.l1.miss_penalty_cycles + cfg.dirty_fetch_cycles);
  // Owner downgraded; both end up Shared.
  EXPECT_EQ(mem.state(0, 0x4000), CoherentMemoryModel::LineState::kShared);
  EXPECT_EQ(mem.state(1, 0x4000), CoherentMemoryModel::LineState::kShared);
  // The writeback message carries the line's bytes at the line address.
  bool saw_writeback = false;
  for (const BusRequest& rq : rd.traffic)
    if (rq.write && rq.addr == 0x4000 &&
        rq.data.size() == cfg.l1.line_bytes)
      saw_writeback = true;
  EXPECT_TRUE(saw_writeback);
  EXPECT_EQ(mem.totals().writebacks, 1u);
}

TEST(Coherence, UncachedAgentInteractsWithDirectory) {
  CoherentMemoryModel mem(small_l1(), 2);
  (void)mem.access(0, /*write=*/true, 0x5000, 4);
  // A DMA-style agent (core < 0) reading the line flushes the dirty owner.
  const auto rd = mem.access(-1, /*write=*/false, 0x5000, 16);
  EXPECT_EQ(rd.writebacks, 1u);
  // And a device write invalidates every cached copy.
  const auto wr = mem.access(-1, /*write=*/true, 0x5000, 16);
  EXPECT_GE(wr.invalidations, 1u);
  EXPECT_EQ(mem.state(0, 0x5000), CoherentMemoryModel::LineState::kInvalid);
}

TEST(Coherence, LineCrossingAccessRunsProtocolPerLine) {
  CoherentMemoryModel mem(small_l1(), 1);
  // 32 bytes starting mid-line touch 3 lines of 16 bytes.
  (void)mem.access(0, false, 0x1008, 32);
  EXPECT_EQ(mem.totals().l1_misses, 3u);
}

TEST(Coherence, EvictionOfModifiedLineWritesBack) {
  CoherenceConfig cfg = small_l1();
  cfg.l1.size_bytes = 32;  // 1 set x 2 ways of 16B: tiny, easy to thrash
  CoherentMemoryModel mem(cfg, 1);
  (void)mem.access(0, true, 0x0000, 4);
  (void)mem.access(0, true, 0x1000, 4);
  const auto evict = mem.access(0, true, 0x2000, 4);  // LRU victim is dirty
  EXPECT_EQ(evict.writebacks, 1u);
  EXPECT_EQ(mem.totals().writebacks, 1u);
}

TEST(Coherence, TrafficBillsUnderConfiguredMasterAndPriority) {
  CoherenceConfig cfg = small_l1();
  cfg.traffic_master = 42;
  cfg.traffic_priority = 5;
  CoherentMemoryModel mem(cfg, 2);
  (void)mem.access(0, true, 0x6000, 4);
  const auto rd = mem.access(1, false, 0x6000, 4);
  ASSERT_FALSE(rd.traffic.empty());
  for (const BusRequest& rq : rd.traffic) {
    EXPECT_EQ(rq.master, 42);
    EXPECT_EQ(rq.priority, 5);
  }
}

// ---- wire codec -----------------------------------------------------------

TEST(Coherence, TotalsRoundTripThroughRunResultsWire) {
  core::RunResults res;
  res.total_energy = 1.25e-6;
  res.coherence.accesses = 7;
  res.coherence.l1_hits = 4;
  res.coherence.l1_misses = 3;
  res.coherence.upgrades = 2;
  res.coherence.invalidations = 5;
  res.coherence.writebacks = 1;
  res.coherence.energy = 3.5e-9;
  dist::WireWriter w;
  dist::put_run_results(w, res);
  dist::WireReader r(w.bytes());
  core::RunResults got;
  ASSERT_TRUE(dist::get_run_results(r, &got));
  EXPECT_EQ(got.coherence.accesses, 7u);
  EXPECT_EQ(got.coherence.l1_hits, 4u);
  EXPECT_EQ(got.coherence.l1_misses, 3u);
  EXPECT_EQ(got.coherence.upgrades, 2u);
  EXPECT_EQ(got.coherence.invalidations, 5u);
  EXPECT_EQ(got.coherence.writebacks, 1u);
  EXPECT_EQ(got.coherence.energy, 3.5e-9);
}

}  // namespace
}  // namespace socpower
