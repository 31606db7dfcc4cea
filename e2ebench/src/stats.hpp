// Statistics helpers of the end-to-end benchmark: order statistics of op
// wall times, the tail-percentile rule, ratios reported with their base,
// and the failed-op tally. Header-only so the unit tests need no socpower
// library.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace e2ebench {

/// 1-based nearest rank of the p-th percentile of n > 0 samples. The
/// tolerance keeps decimal percentiles exact: 99.9 % of 10000 is rank 9990.
[[nodiscard]] inline std::size_t nearest_rank(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

/// Nearest-rank percentile: the smallest sample with at least p % of the
/// samples at or below it. `p` in (0, 100]; 0 for an empty vector.
[[nodiscard]] inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[nearest_rank(v.size(), p) - 1];
}

/// Samples strictly beyond the nearest-rank p-th percentile of n samples.
[[nodiscard]] inline std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

/// The highest reported percentile (99.9, 99, 90 or 50) that has at least
/// `min_beyond` samples beyond it; 0 when even the median has fewer.
[[nodiscard]] inline double tail_percentile(std::size_t n,
                                            std::size_t min_beyond = 10) {
  for (const double p : {99.9, 99.0, 90.0, 50.0})
    if (samples_beyond(n, p) >= min_beyond) return p;
  return 0.0;
}

/// Median with the midpoint rule for even counts (Python's
/// statistics.median); 0 for an empty vector.
[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Quartiles exactly as Python's statistics.quantiles(v, n=4) computes them
/// (the default 'exclusive' method). Needs at least two samples; fewer
/// return the single value (or 0) three times.
[[nodiscard]] inline std::array<double, 3> quartiles(std::vector<double> v) {
  if (v.size() < 2) {
    const double x = v.empty() ? 0.0 : v.front();
    return {x, x, x};
  }
  std::sort(v.begin(), v.end());
  const auto ld = static_cast<long>(v.size());
  const long m = ld + 1;
  std::array<double, 3> q{};
  for (long i = 1; i <= 3; ++i) {
    const long j = std::clamp<long>(i * m / 4, 1, ld - 1);
    const long delta = i * m - j * 4;
    q[static_cast<std::size_t>(i - 1)] =
        (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
         v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        4.0;
  }
  return q;
}

/// Interquartile distance as a share of the median: the run-to-run spread
/// the benchmark's bounds are judged against. 0 when the median is 0.
[[nodiscard]] inline double iqr_share(const std::vector<double>& v) {
  const double med = median(v);
  if (med == 0.0) return 0.0;
  const std::array<double, 3> q = quartiles(v);
  return (q[2] - q[0]) / std::fabs(med);
}

/// A ratio that keeps its base, so every reported share or hit rate can be
/// printed with the counts it came from.
struct Ratio {
  double num = 0.0;
  double den = 0.0;

  [[nodiscard]] double value() const { return den != 0.0 ? num / den : 0.0; }
  /// "(1/4)"; counts print without a fraction when they are whole.
  [[nodiscard]] std::string base() const {
    char buf[96];
    const auto whole = [](double x) {
      return std::floor(x) == x && std::fabs(x) < 1e15;
    };
    std::snprintf(buf, sizeof buf,
                  whole(num) && whole(den) ? "(%.0f/%.0f)" : "(%.6g/%.6g)", num,
                  den);
    return buf;
  }
  /// "0.2500 (1/4)".
  [[nodiscard]] std::string render() const {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.4f ", value());
    return buf + base();
  }
};

/// Attempted/failed op counts of one run.
struct OpTally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  [[nodiscard]] Ratio failed_ratio() const {
    return {static_cast<double>(failed), static_cast<double>(attempted)};
  }
};

}  // namespace e2ebench
