// Grant-level bus scheduler tests: block-boundary re-arbitration, priority
// preemption, FIFO fairness within a master and energy/cycle accounting.
// Equivalence with an atomic-transfer model on uncontended traffic is in
// test_bus_scheduler_reference.cpp.
#include <gtest/gtest.h>

#include "bus/bus_model.hpp"

namespace socpower::bus {
namespace {

BusParams params4() {
  BusParams p;
  p.dma_block_size = 4;
  p.handshake_cycles = 2;
  p.line_cap_f = 1e-9;
  return p;
}

BusRequest req(int master, int prio, std::size_t bytes,
               std::uint8_t fill = 0xAA) {
  BusRequest r;
  r.master = master;
  r.priority = prio;
  r.data.assign(bytes, fill);
  return r;
}

std::vector<BusScheduler::Completion> drain(BusScheduler& s) {
  std::vector<BusScheduler::Completion> all;
  while (s.has_work()) {
    for (auto& c : s.advance(s.next_boundary())) all.push_back(std::move(c));
  }
  return all;
}

TEST(BusScheduler, SingleTransferTimings) {
  BusScheduler s(params4());
  s.submit(10, req(0, 0, 10));  // 3 grants: 4+4+2 bytes
  const auto done = drain(s);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].result.start, 10u);
  EXPECT_EQ(done[0].result.grants, 3u);
  EXPECT_EQ(done[0].result.busy_cycles, 3u * 2 + 10u);
  EXPECT_EQ(done[0].result.end, 10u + 16u);
  EXPECT_EQ(done[0].result.wait_cycles, 0u);
}

TEST(BusScheduler, HighPriorityPreemptsAtBlockBoundary) {
  BusScheduler s(params4());
  s.submit(0, req(0, /*prio=*/1, 12));  // grants end at 6, 12, 18
  s.submit(1, req(1, /*prio=*/9, 4));
  const auto done = drain(s);
  ASSERT_EQ(done.size(), 2u);
  // Master 1 gets the bus at the first boundary (cycle 6), master 0's
  // transfer stretches around it.
  const auto& hi = done[0].master == 1 ? done[0] : done[1];
  const auto& lo = done[0].master == 1 ? done[1] : done[0];
  EXPECT_EQ(hi.result.start, 6u);
  EXPECT_EQ(hi.result.end, 12u);
  EXPECT_EQ(hi.result.wait_cycles, 5u);
  EXPECT_EQ(lo.result.start, 0u);
  EXPECT_EQ(lo.result.end, 18u + 6u);  // one block displaced
}

TEST(BusScheduler, LowPriorityWaitsForAllBlocks) {
  BusScheduler s(params4());
  s.submit(0, req(0, /*prio=*/9, 12));
  s.submit(1, req(1, /*prio=*/1, 4));
  const auto done = drain(s);
  const auto& lo = done[0].master == 1 ? done[0] : done[1];
  EXPECT_EQ(lo.result.start, 18u);  // after the whole high-prio transfer
  EXPECT_EQ(lo.result.wait_cycles, 17u);
}

TEST(BusScheduler, GrantInProgressIsNeverPreempted) {
  BusScheduler s(params4());
  s.submit(0, req(0, 1, 4));  // one grant: 0..6
  s.submit(2, req(1, 9, 4));  // arrives mid-grant
  const auto done = drain(s);
  const auto& hi = done[0].master == 1 ? done[0] : done[1];
  EXPECT_EQ(hi.result.start, 6u);  // waits for the boundary, not cycle 2
}

TEST(BusScheduler, FifoWithinEqualPriority) {
  BusScheduler s(params4());
  s.submit(0, req(5, 3, 4));
  s.submit(0, req(5, 3, 4));
  s.submit(0, req(2, 3, 4));  // lower master id wins ties at arbitration
  const auto done = drain(s);
  ASSERT_EQ(done.size(), 3u);
  // All submitted at t=0: master 2 first, then master 5's two in order.
  EXPECT_EQ(done[0].master, 2);
  EXPECT_EQ(done[1].master, 5);
  EXPECT_EQ(done[2].master, 5);
  EXPECT_LT(done[1].result.start, done[2].result.start);
}

TEST(BusScheduler, IdleGapsAreSkippedNotBilled) {
  BusScheduler s(params4());
  s.submit(0, req(0, 0, 4));
  s.submit(100, req(0, 0, 4));
  const auto done = drain(s);
  EXPECT_EQ(done[0].result.end, 6u);
  EXPECT_EQ(done[1].result.start, 100u);
  EXPECT_EQ(done[1].result.wait_cycles, 0u);
}

TEST(BusScheduler, EmptyPayloadIsOneHandshake) {
  BusScheduler s(params4());
  s.submit(7, req(0, 0, 0));
  const auto done = drain(s);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].result.grants, 1u);
  EXPECT_EQ(done[0].result.busy_cycles, 2u);
  EXPECT_GT(done[0].result.energy, 0.0);
}

TEST(BusScheduler, AdvanceIsIncremental) {
  BusScheduler s(params4());
  s.submit(0, req(0, 0, 8));  // grants end at 6 and 12
  auto first = s.advance(6);
  EXPECT_TRUE(first.empty());  // transfer not finished yet
  EXPECT_TRUE(s.has_work());
  auto second = s.advance(12);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_FALSE(s.has_work());
}

TEST(BusScheduler, NextBoundaryTracksState) {
  BusScheduler s(params4());
  EXPECT_FALSE(s.has_work());
  s.submit(50, req(0, 0, 4));
  EXPECT_EQ(s.next_boundary(), 50u);  // idle: earliest submission
  s.advance(50);
  EXPECT_EQ(s.next_boundary(), 56u);  // busy: current grant end
}

TEST(BusScheduler, WaitCyclesAccumulateInTotals) {
  BusScheduler s(params4());
  s.submit(0, req(0, 5, 8));
  s.submit(1, req(1, 1, 4));
  drain(s);
  EXPECT_GT(s.totals().wait_cycles, 0u);
  EXPECT_EQ(s.totals().transfers, 2u);
}

TEST(BusScheduler, GrantTimesRecordEveryGrantStart) {
  BusScheduler s(params4());
  s.set_keep_grant_times(true);
  s.submit(4, req(0, 0, 10));
  drain(s);
  ASSERT_EQ(s.grant_times().size(), 3u);
  EXPECT_EQ(s.grant_times()[0], 4u);
  EXPECT_EQ(s.grant_times()[1], 10u);
  EXPECT_EQ(s.grant_times()[2], 16u);
}

TEST(BusScheduler, ResetClearsEverything) {
  BusScheduler s(params4());
  s.submit(0, req(0, 0, 4));
  s.reset();
  EXPECT_FALSE(s.has_work());
  EXPECT_EQ(s.totals().transfers, 0u);
  s.submit(0, req(0, 0, 4));
  const auto done = drain(s);
  EXPECT_EQ(done[0].result.start, 0u);
}

TEST(BusScheduler, ThreeWayContentionOrdersByPriority) {
  BusScheduler s(params4());
  s.submit(0, req(0, 1, 16));  // long, low priority
  s.submit(1, req(1, 2, 4));
  s.submit(1, req(2, 3, 4));
  const auto done = drain(s);
  ASSERT_EQ(done.size(), 3u);
  // At the first boundary both short jobs pend; priority 3 goes first.
  std::uint64_t start_m2 = 0, start_m1 = 0;
  for (const auto& c : done) {
    if (c.master == 2) start_m2 = c.result.start;
    if (c.master == 1) start_m1 = c.result.start;
  }
  EXPECT_LT(start_m2, start_m1);
}

}  // namespace
}  // namespace socpower::bus
