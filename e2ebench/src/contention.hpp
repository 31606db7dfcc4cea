// Contention of the CPU the benchmark runs on, measured with a short probe
// kernel timed between ops.
//
// The virtual CPUs of the machine this benchmark was tuned on share physical
// cores with other machines' work. While a core is busy elsewhere this code
// runs up to 1.6x slower, the state changes within a few hundred ms, and how
// much of a run it covers differs from run to run, so the raw op times of
// two runs of one binary differed by 20-30 %. An integer kernel with four
// independent chains slows by the same factor as the ops (1.5-1.7x), while a
// single dependent chain or a DRAM pointer chase barely moves. Timing that
// kernel right before and right after each op estimates the slowdown the op
// saw, relative to the kernel's time on a quiet core.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>

namespace e2ebench {

/// Wall time in ms of the probe kernel: about 0.5 ms on an idle core.
inline double probe_kernel_ms() {
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t a = 1, b = 2, c = 3, d = 4;
  for (int i = 0; i < 200000; ++i) {
    a ^= a << 13; a ^= a >> 7; a ^= a << 17;
    b ^= b << 13; b ^= b >> 7; b ^= b << 17;
    c ^= c << 13; c ^= c >> 7; c ^= c << 17;
    d ^= d << 13; d ^= d >> 7; d ^= d << 17;
  }
  static volatile std::uint64_t sink;
  sink = sink + (a ^ b ^ c ^ d);
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// The probe time corrected samples are rescaled to: the probe kernel's time
/// on a quiet core of the machine this benchmark was tuned on (its fastest
/// probe per run read 0.484-0.510 ms). A fixed reference, not the run's own
/// fastest probe, so that the noise of that minimum stays out of the figures.
inline constexpr double kReferenceProbeMs = 0.5;

/// The probes of one run. A sample timed between two probes is corrected as
/// wall × kReferenceProbeMs / (mean of its two probes).
class Contention {
 public:
  /// Times the probe kernel once, in ms.
  double probe() {
    const double ms = probe_kernel_ms();
    fastest_ms_ = std::min(fastest_ms_, ms);
    return ms;
  }
  /// The fastest probe of the run so far, printed next to the results.
  [[nodiscard]] double fastest_ms() const { return fastest_ms_; }
  /// `wall` rescaled from the contention `probe_ms` to the reference probe.
  [[nodiscard]] static double corrected(double wall, double probe_ms) {
    return wall * kReferenceProbeMs / probe_ms;
  }

 private:
  double fastest_ms_ = std::numeric_limits<double>::infinity();
};

}  // namespace e2ebench
