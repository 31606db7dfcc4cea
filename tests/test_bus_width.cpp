// Multi-byte data-lane tests: 16/32-bit buses move several bytes per beat,
// cutting transfer cycles and address-line switching, with consistent byte
// accounting.
#include <gtest/gtest.h>

#include "bus/bus_model.hpp"
#include "bus_drain.hpp"

namespace socpower::bus {
namespace {

BusParams width_params(unsigned data_bits) {
  BusParams p;
  p.data_bits = data_bits;
  p.dma_block_size = 16;
  p.handshake_cycles = 2;
  p.line_cap_f = 1e-9;
  return p;
}

std::vector<std::uint8_t> payload(std::size_t n) {
  std::vector<std::uint8_t> d(n);
  for (std::size_t i = 0; i < n; ++i)
    d[i] = static_cast<std::uint8_t>(i * 37 + 11);
  return d;
}

TEST(BusWidth, WiderLanesFewerBeats) {
  const auto data = payload(16);
  BusRequest r;
  r.data = data;
  BusScheduler b8(width_params(8));
  BusScheduler b16(width_params(16));
  BusScheduler b32(width_params(32));
  const auto t8 = transfer_one(b8, 0, r);
  const auto t16 = transfer_one(b16, 0, r);
  const auto t32 = transfer_one(b32, 0, r);
  EXPECT_EQ(t8.busy_cycles, 2u + 16u);
  EXPECT_EQ(t16.busy_cycles, 2u + 8u);
  EXPECT_EQ(t32.busy_cycles, 2u + 4u);
  // Bytes accounted identically.
  EXPECT_EQ(b8.totals().bytes, 16u);
  EXPECT_EQ(b32.totals().bytes, 16u);
}

TEST(BusWidth, AddressActivityShrinksWithWidth) {
  const auto data = payload(32);
  BusRequest r;
  r.data = data;
  r.addr = 0;
  BusScheduler b8(width_params(8));
  BusScheduler b32(width_params(32));
  transfer_one(b8, 0, r);
  transfer_one(b32, 0, r);
  // One address per beat: 4x fewer beats => fewer address toggles.
  EXPECT_LT(b32.totals().addr_toggles, b8.totals().addr_toggles);
}

TEST(BusWidth, DataTogglesAreWordwise) {
  // Alternating 0x00/0xFF bytes: on a 16-bit lane each beat word is 0xFF00
  // or packed {00,FF} = 0xFF00 repeatedly -> after the first beat no
  // toggles; on an 8-bit lane every beat flips all 8 lines.
  std::vector<std::uint8_t> alt;
  for (int i = 0; i < 16; ++i) alt.push_back(i % 2 ? 0xFF : 0x00);
  BusRequest r;
  r.data = alt;
  BusScheduler b8(width_params(8));
  BusScheduler b16(width_params(16));
  transfer_one(b8, 0, r);
  transfer_one(b16, 0, r);
  EXPECT_GT(b8.totals().data_toggles, 100u);  // 15 flips x 8 lines
  EXPECT_EQ(b16.totals().data_toggles, 8u);   // one transition to 0xFF00
}

TEST(BusWidth, OddTailBytesPackIntoPartialBeat) {
  BusScheduler b32(width_params(32));
  BusRequest r;
  r.data = payload(5);  // one full word + one 1-byte beat
  const auto res = transfer_one(b32, 0, r);
  EXPECT_EQ(res.busy_cycles, 2u + 2u);
  EXPECT_EQ(b32.totals().bytes, 5u);
}

}  // namespace
}  // namespace socpower::bus
