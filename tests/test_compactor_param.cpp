// Parameterized sweep over the sequence compactor's configuration space:
// for every (K, ratio, window) combination and several stream shapes, the
// selection must honor the requested fraction and keep the unigram
// distribution close.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "core/compactor.hpp"
#include "util/rng.hpp"

namespace socpower::core {
namespace {

struct SweepCase {
  std::size_t k;
  double ratio;
  std::size_t window;
  int shape;  // 0 = uniform, 1 = skewed, 2 = periodic, 3 = two-phase
  // gtest names each case after the raw bytes of its parameter; explicit zero
  // bytes in place of padding keep those names the same from run to run.
  std::uint8_t zero[4] = {};
};

std::vector<std::uint32_t> make_stream(int shape, std::size_t n,
                                       std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint32_t> s;
  s.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (shape) {
      case 0:
        s.push_back(static_cast<std::uint32_t>(rng.below(8)));
        break;
      case 1:
        s.push_back(rng.chance(0.85) ? 0u
                                     : static_cast<std::uint32_t>(
                                           1 + rng.below(7)));
        break;
      case 2:
        s.push_back(static_cast<std::uint32_t>(i % 5));
        break;
      default:
        s.push_back(i < n / 2 ? 1u : 2u);
        break;
    }
  }
  return s;
}

class CompactorSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(CompactorSweep, SelectionHonorsRatioAndDistribution) {
  const SweepCase& c = GetParam();
  const auto stream = make_stream(c.shape, c.k, 1000 + c.k);
  SequenceCompactor comp({.k_memory = c.k, .keep_ratio = c.ratio,
                          .window = c.window, .min_length = 8});
  const auto kept = comp.select(stream);
  ASSERT_FALSE(kept.empty());
  // Fraction within one window of the target.
  const double frac =
      static_cast<double>(kept.size()) / static_cast<double>(stream.size());
  EXPECT_GE(frac, c.ratio - static_cast<double>(c.window) /
                                static_cast<double>(stream.size()) - 1e-9);
  EXPECT_LE(frac, c.ratio + static_cast<double>(c.window) /
                                static_cast<double>(stream.size()) + 1e-9);
  // Indices valid, strictly increasing.
  for (std::size_t i = 0; i < kept.size(); ++i) {
    EXPECT_LT(kept[i], stream.size());
    if (i > 0) {
      EXPECT_LT(kept[i - 1], kept[i]);
    }
  }
  // Unigram distance bounded (generous: it must beat a worst-case pick).
  EXPECT_LT(SequenceCompactor::unigram_distance(stream, kept), 0.5);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CompactorSweep,
    ::testing::Values(
        SweepCase{32, 0.25, 4, 0}, SweepCase{32, 0.25, 4, 1},
        SweepCase{32, 0.25, 4, 2}, SweepCase{32, 0.25, 4, 3},
        SweepCase{64, 0.125, 4, 0}, SweepCase{64, 0.125, 8, 1},
        SweepCase{64, 0.5, 2, 2}, SweepCase{64, 0.5, 8, 3},
        SweepCase{128, 0.25, 8, 0}, SweepCase{128, 0.0625, 4, 1},
        SweepCase{128, 0.75, 4, 2}, SweepCase{256, 0.25, 16, 3}),
    [](const auto& info) {
      const SweepCase& c = info.param;
      return std::string("k")
          .append(std::to_string(c.k))
          .append("_r")
          .append(std::to_string(static_cast<int>(c.ratio * 10000)))
          .append("_w")
          .append(std::to_string(c.window))
          .append("_s")
          .append(std::to_string(c.shape));
    });

TEST(CompactorSweep, DeterministicSelection) {
  const auto stream = make_stream(0, 128, 7);
  SequenceCompactor comp(
      {.k_memory = 128, .keep_ratio = 0.25, .window = 4, .min_length = 8});
  EXPECT_EQ(comp.select(stream), comp.select(stream));
}

}  // namespace
}  // namespace socpower::core
