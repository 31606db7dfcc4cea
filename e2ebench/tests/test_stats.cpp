// Unit tests of the benchmark's statistics helpers on fixed vectors.
//
//   cmake --build <build-dir> --target e2ebench_tests
//   <build-dir>/e2ebench_tests
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "contention.hpp"
#include "stats.hpp"

namespace e2ebench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentile, NearestRank) {
  const std::vector<double> v = one_to(10);
  EXPECT_EQ(percentile(v, 50.0), 5.0);
  EXPECT_EQ(percentile(v, 90.0), 9.0);
  EXPECT_EQ(percentile(v, 91.0), 10.0);
  EXPECT_EQ(percentile(v, 100.0), 10.0);
  EXPECT_EQ(percentile({}, 50.0), 0.0);
  EXPECT_EQ(percentile({7.0}, 90.0), 7.0);
}

TEST(Percentile, SamplesBeyond) {
  EXPECT_EQ(samples_beyond(100, 90.0), 10u);
  EXPECT_EQ(samples_beyond(99, 90.0), 9u);
  EXPECT_EQ(samples_beyond(1000, 99.0), 10u);
  EXPECT_EQ(samples_beyond(0, 50.0), 0u);
}

TEST(Percentile, TailRuleNeedsTenSamplesBeyond) {
  EXPECT_EQ(tail_percentile(19), 0.0);
  EXPECT_EQ(tail_percentile(20), 50.0);
  EXPECT_EQ(tail_percentile(99), 50.0);
  EXPECT_EQ(tail_percentile(100), 90.0);
  EXPECT_EQ(tail_percentile(999), 90.0);
  EXPECT_EQ(tail_percentile(1000), 99.0);
  EXPECT_EQ(tail_percentile(10000), 99.9);
  EXPECT_EQ(tail_percentile(100, 11), 50.0);
}

TEST(Quartiles, MatchPythonStatisticsQuantiles) {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  const auto q = quartiles(one_to(10));
  EXPECT_DOUBLE_EQ(q[0], 2.75);
  EXPECT_DOUBLE_EQ(q[1], 5.5);
  EXPECT_DOUBLE_EQ(q[2], 8.25);
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  const auto q2 = quartiles({2.0, 1.0});
  EXPECT_DOUBLE_EQ(q2[0], 0.75);
  EXPECT_DOUBLE_EQ(q2[1], 1.5);
  EXPECT_DOUBLE_EQ(q2[2], 2.25);
  // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
  const auto q3 = quartiles({3.0, 1.0, 4.0, 1.0, 5.0});
  EXPECT_DOUBLE_EQ(q3[0], 1.0);
  EXPECT_DOUBLE_EQ(q3[1], 3.0);
  EXPECT_DOUBLE_EQ(q3[2], 4.5);
}

TEST(Quartiles, InterquartileSpreadIsShareOfMedian) {
  EXPECT_DOUBLE_EQ(median(one_to(10)), 5.5);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(iqr_share(one_to(10)), (8.25 - 2.75) / 5.5);
  EXPECT_DOUBLE_EQ(iqr_share({4.0, 4.0, 4.0, 4.0}), 0.0);
  EXPECT_DOUBLE_EQ(iqr_share({0.0, 0.0, 0.0}), 0.0);
}

TEST(Contention, CorrectsToTheReferenceProbe) {
  Contention c;
  EXPECT_TRUE(std::isinf(c.fastest_ms()));
  // Probe the kernel a few times; the fastest is kept and is positive.
  double slowest = 0.0;
  for (int i = 0; i < 5; ++i) slowest = std::max(slowest, c.probe());
  EXPECT_GT(c.fastest_ms(), 0.0);
  EXPECT_LE(c.fastest_ms(), slowest);
  // A sample seen at the reference probe stays as it is; one seen at twice
  // that is halved, one at half of it doubled.
  EXPECT_DOUBLE_EQ(Contention::corrected(0.3, kReferenceProbeMs), 0.3);
  EXPECT_DOUBLE_EQ(Contention::corrected(0.3, 2.0 * kReferenceProbeMs), 0.15);
  EXPECT_DOUBLE_EQ(Contention::corrected(0.3, 0.5 * kReferenceProbeMs), 0.6);
}

TEST(Ratio, KeepsItsBase) {
  const Ratio r{1.0, 4.0};
  EXPECT_DOUBLE_EQ(r.value(), 0.25);
  EXPECT_EQ(r.render(), "0.2500 (1/4)");
  EXPECT_EQ((Ratio{0.5, 2.0}).render(), "0.2500 (0.5/2)");
  EXPECT_EQ((Ratio{3.0, 0.0}).value(), 0.0);
  EXPECT_EQ((Ratio{3.0, 0.0}).render(), "0.0000 (3/0)");
}

TEST(OpTally, CountsFailedAgainstAttempted) {
  OpTally t;
  EXPECT_EQ(t.failed_ratio().value(), 0.0);
  for (const bool ok : {true, false, true, true, false}) t.record(ok);
  EXPECT_EQ(t.attempted, 5u);
  EXPECT_EQ(t.failed, 2u);
  EXPECT_DOUBLE_EQ(t.failed_ratio().value(), 0.4);
  EXPECT_EQ(t.failed_ratio().render(), "0.4000 (2/5)");
}

}  // namespace
}  // namespace e2ebench
