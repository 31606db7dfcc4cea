// BusScheduler against a reference atomic-transfer bus: one master, so no
// arbitration, and every transfer holds the bus from its first grant to its
// last beat. With a single master the scheduler's block-boundary
// re-arbitration always picks the oldest pending transfer, so the two must
// agree on every transfer's start, end, wait, busy cycles, grants and grant
// times, and on the byte and toggle totals. Energy agrees to 1e-12 relative,
// not bitwise: the reference sums a transfer's toggle energies beat by beat,
// the scheduler sums each grant first.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "bus/bus_model.hpp"
#include "util/rng.hpp"

namespace socpower::bus {
namespace {

class ReferenceBus {
 public:
  explicit ReferenceBus(BusParams p) : p_(p) {}

  BusResult transfer(std::uint64_t now, const BusRequest& req) {
    const std::uint32_t addr_mask =
        p_.addr_bits >= 32 ? 0xffffffffu : ((1u << p_.addr_bits) - 1);
    const std::uint32_t data_mask =
        p_.data_bits >= 32 ? 0xffffffffu : ((1u << p_.data_bits) - 1);
    const std::size_t n = req.data.size();
    BusResult res;
    res.start = std::max(now, free_at_);
    res.wait_cycles = res.start - now;
    res.grants = n == 0 ? 1u
                        : static_cast<unsigned>(
                              (n + p_.dma_block_size - 1) / p_.dma_block_size);
    std::uint64_t cycle = res.start;
    std::size_t i = 0;
    for (unsigned g = 0; g < res.grants; ++g) {
      grant_times_.push_back(cycle);
      cycle += p_.handshake_cycles;
      res.energy +=
          toggle_energy(static_cast<std::uint64_t>(p_.handshake_toggles));
      const std::size_t block_end = std::min(n, i + p_.dma_block_size);
      while (i < block_end) {
        const std::uint32_t a =
            (req.addr + static_cast<std::uint32_t>(i)) & addr_mask;
        std::uint32_t word = 0;
        for (unsigned b = 0; b < p_.bytes_per_beat() && i < block_end;
             ++b, ++i)
          word |= static_cast<std::uint32_t>(req.data[i]) << (8 * b);
        word &= data_mask;
        const auto at = static_cast<std::uint64_t>(
            std::popcount(a ^ (prev_addr_ & addr_mask)));
        const auto dt =
            static_cast<std::uint64_t>(std::popcount(word ^ prev_data_));
        totals_.addr_toggles += at;
        totals_.data_toggles += dt;
        res.energy += toggle_energy(at + dt);
        prev_addr_ = a;
        prev_data_ = word;
        cycle += p_.cycles_per_beat;
      }
    }
    res.end = cycle;
    res.busy_cycles = cycle - res.start;
    free_at_ = cycle;
    totals_.transfers += 1;
    totals_.grants += res.grants;
    totals_.bytes += n;
    totals_.wait_cycles += res.wait_cycles;
    totals_.energy += res.energy;
    return res;
  }

  [[nodiscard]] const BusTotals& totals() const { return totals_; }
  [[nodiscard]] const std::vector<std::uint64_t>& grant_times() const {
    return grant_times_;
  }

 private:
  [[nodiscard]] Joules toggle_energy(std::uint64_t toggles) const {
    return p_.electrical.switch_energy(p_.line_cap_f) *
           static_cast<double>(toggles);
  }

  BusParams p_;
  std::uint64_t free_at_ = 0;
  std::uint32_t prev_addr_ = 0;
  std::uint32_t prev_data_ = 0;
  BusTotals totals_;
  std::vector<std::uint64_t> grant_times_;
};

/// A transfer request and the cycle it is submitted at.
using TimedRequest = std::pair<std::uint64_t, BusRequest>;

void expect_energy_near(Joules got, Joules want) {
  EXPECT_LE(std::abs(got - want), 1e-12 * std::abs(want))
      << got << " vs " << want;
}

/// Submits `requests` (non-decreasing cycles, one master) to both models.
/// The scheduler is advanced to each submit cycle first, so a transfer
/// submitted while the previous one still holds the bus waits for it.
void expect_matches_reference(const BusParams& p,
                              const std::vector<TimedRequest>& requests) {
  ReferenceBus ref(p);
  BusScheduler sched(p);
  sched.set_keep_grant_times(true);
  std::vector<BusResult> want;
  std::vector<BusScheduler::Completion> got;
  auto collect = [&got](std::vector<BusScheduler::Completion> done) {
    got.insert(got.end(), done.begin(), done.end());
  };
  for (const auto& [now, req] : requests) {
    want.push_back(ref.transfer(now, req));
    collect(sched.advance(now));
    sched.submit(now, req);
  }
  while (sched.has_work()) collect(sched.advance(sched.next_boundary()));

  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < want.size(); ++k) {
    SCOPED_TRACE(k);
    const BusResult& g = got[k].result;
    const BusResult& w = want[k];
    EXPECT_EQ(got[k].id, k + 1);  // completions in submit order
    EXPECT_EQ(g.start, w.start);
    EXPECT_EQ(g.end, w.end);
    EXPECT_EQ(g.wait_cycles, w.wait_cycles);
    EXPECT_EQ(g.busy_cycles, w.busy_cycles);
    EXPECT_EQ(g.grants, w.grants);
    expect_energy_near(g.energy, w.energy);
  }
  const BusTotals& gt = sched.totals();
  const BusTotals& wt = ref.totals();
  EXPECT_EQ(gt.transfers, wt.transfers);
  EXPECT_EQ(gt.grants, wt.grants);
  EXPECT_EQ(gt.bytes, wt.bytes);
  EXPECT_EQ(gt.addr_toggles, wt.addr_toggles);
  EXPECT_EQ(gt.data_toggles, wt.data_toggles);
  EXPECT_EQ(gt.wait_cycles, wt.wait_cycles);
  expect_energy_near(gt.energy, wt.energy);
  EXPECT_EQ(sched.grant_times(), ref.grant_times());
}

TEST(BusScheduler, EnergyMatchesAtomicModelWithoutContention) {
  BusParams p;
  p.dma_block_size = 4;
  p.handshake_cycles = 2;
  p.line_cap_f = 1e-9;
  BusRequest r1;
  for (int i = 0; i < 23; ++i)
    r1.data.push_back(static_cast<std::uint8_t>(i * 37));
  BusRequest r2;
  r2.addr = 0x40;
  r2.data.assign(9, 0x5C);
  expect_matches_reference(p, {{0, r1}, {1000, r2}});
}

TEST(BusWidth, SchedulerAgreesWithAtomicModel) {
  BusRequest r;
  for (std::size_t i = 0; i < 24; ++i)
    r.data.push_back(static_cast<std::uint8_t>(i * 37 + 11));
  for (const unsigned bits : {8u, 16u, 32u}) {
    SCOPED_TRACE(bits);
    BusParams p;
    p.data_bits = bits;
    p.dma_block_size = 16;
    p.handshake_cycles = 2;
    p.line_cap_f = 1e-9;
    expect_matches_reference(p, {{0, r}});
  }
}

TEST(BusSchedulerReference, RandomSequentialTransfersMatch) {
  constexpr unsigned kWidths[] = {1, 2, 3, 4, 5, 6, 7, 8, 16, 24, 32};
  constexpr int kConfigs = 120;
  constexpr int kTransfersPerConfig = 100;
  Rng rng(2024);
  for (int c = 0; c < kConfigs; ++c) {
    BusParams p;
    p.addr_bits = static_cast<unsigned>(rng.range(1, 32));
    p.data_bits = kWidths[rng.below(std::size(kWidths))];
    p.dma_block_size = static_cast<unsigned>(rng.range(1, 40));
    p.handshake_cycles = static_cast<unsigned>(rng.range(0, 4));
    p.handshake_toggles = static_cast<double>(rng.range(0, 6));
    p.cycles_per_beat = static_cast<unsigned>(rng.range(1, 3));
    p.line_cap_f = 1e-12 * static_cast<double>(rng.range(1, 10000));
    std::vector<TimedRequest> requests;
    std::uint64_t now = 0;
    for (int k = 0; k < kTransfersPerConfig; ++k) {
      now += rng.below(60);  // often lands while the bus is still busy
      BusRequest r;
      r.addr = static_cast<std::uint32_t>(rng.next());
      r.data.resize(rng.below(70));
      const bool sparse = rng.chance(0.3);  // long runs of repeated bytes
      for (auto& b : r.data)
        b = sparse && rng.chance(0.8) ? std::uint8_t{0}
                                      : static_cast<std::uint8_t>(rng.next());
      requests.emplace_back(now, std::move(r));
    }
    SCOPED_TRACE(c);
    expect_matches_reference(p, requests);
    if (::testing::Test::HasFailure()) return;
  }
}

}  // namespace
}  // namespace socpower::bus
