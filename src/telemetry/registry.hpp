// Counter/gauge/histogram registry of the telemetry subsystem.
//
// The paper's simulation master "collects the cycles and energy statistics
// for each invocation of the lower-level simulators [and] performs the
// necessary book-keeping" (Section 3); PowerTrace keeps the *energy* books.
// This registry keeps the *observability* books: how often each lower-level
// estimator ran, how often an acceleration technique served a transition
// instead, how the hardware batches and bus grants distribute — the numbers
// that explain where co-estimation time goes and let the Table 1/Table 2
// hit-rate stories be validated outside ad-hoc benches.
//
// Cost contract: every mutation is gated on telemetry::enabled(). With
// telemetry off (the default) an instrumentation site costs one relaxed
// atomic load and a predictable branch — nothing else — which is what keeps
// the disabled path inside the <=2% budget enforced by
// bench_telemetry_overhead. Enabled counters are relaxed atomic adds;
// histograms take a per-histogram mutex and are reserved for low-frequency
// call sites (batch flushes, pool tasks), never the per-instruction path.
//
// Handles returned by counter()/gauge()/histogram() are stable for the
// registry's lifetime (entries live in deques and are never erased), so hot
// layers resolve a handle once — typically into a function-local static —
// and pay no name lookup afterwards.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/stats.hpp"

namespace socpower::telemetry {

namespace detail {
/// Master switch (counters + spans) and the tracing sub-switch. Defined in
/// telemetry.cpp; mutated only through telemetry::configure()/set_enabled().
extern std::atomic<bool> g_enabled;
extern std::atomic<bool> g_trace;
}  // namespace detail

/// True when telemetry collection is on. One relaxed load; safe to call from
/// any thread at any time.
[[nodiscard]] inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// True when trace-event collection (spans/instants) is on. Implies
/// enabled(): configure() never sets the trace flag without the master one.
[[nodiscard]] inline bool trace_enabled() {
  return detail::g_trace.load(std::memory_order_relaxed);
}

/// Monotonic event counter. add() from any thread; relaxed adds commute, so
/// for a deterministic workload the merged total is independent of thread
/// count and interleaving.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    if (enabled()) value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  std::atomic<std::uint64_t> value_{0};
};

/// Last-value gauge with a high-watermark (e.g. thread-pool queue depth:
/// the instantaneous value decays to zero by the time anyone snapshots, the
/// peak is the interesting number).
class Gauge {
 public:
  void set(std::int64_t v) {
    if (!enabled()) return;
    value_.store(v, std::memory_order_relaxed);
    std::int64_t p = peak_.load(std::memory_order_relaxed);
    while (v > p &&
           !peak_.compare_exchange_weak(p, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t peak() const {
    return peak_.load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  std::atomic<std::int64_t> value_{0};
  std::atomic<std::int64_t> peak_{0};
};

/// Value distribution: running moments (count, mean, min, max, sum). Mutex
/// protected — use at batch granularity, not per instruction.
class HistogramStat {
 public:
  void observe(double x) {
    if (!enabled()) return;
    std::lock_guard<std::mutex> lk(mu_);
    stats_.add(x);
  }
  [[nodiscard]] RunningStats stats() const {
    std::lock_guard<std::mutex> lk(mu_);
    return stats_;
  }

 private:
  friend class Registry;
  void reset_locked() { stats_.reset(); }

  mutable std::mutex mu_;
  RunningStats stats_;
};

/// Point-in-time copy of every registered metric, sorted by name. The JSON
/// form feeds scripts/check_trace.py and external tooling; the table form is
/// what core::render_report and the examples print.
struct Snapshot {
  struct CounterValue {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    std::int64_t value = 0;
    std::int64_t peak = 0;
  };
  struct HistogramValue {
    std::string name;
    std::size_t count = 0;
    double mean = 0.0;
    double min = 0.0;
    double max = 0.0;
    double sum = 0.0;
  };

  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;

  [[nodiscard]] bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
  /// Counter value by exact name; 0 when absent (counters register lazily,
  /// so a layer that never ran simply has no entry).
  [[nodiscard]] std::uint64_t counter_or(std::string_view name,
                                         std::uint64_t fallback = 0) const;
  [[nodiscard]] std::string to_json() const;
  /// Fixed-width rendering via util::table (one section per metric kind).
  [[nodiscard]] std::string render_table() const;
};

/// Named metric store. Thread-safe; registration is idempotent (same name =>
/// same handle). Entries are never removed, so handles stay valid and hot
/// paths may cache them indefinitely.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  [[nodiscard]] HistogramStat& histogram(std::string_view name);

  [[nodiscard]] Snapshot snapshot() const;
  /// Zeroes every value but keeps registrations (cached handles survive).
  void reset();

 private:
  mutable std::mutex mu_;
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<HistogramStat> histograms_;
  std::map<std::string, Counter*, std::less<>> counter_index_;
  std::map<std::string, Gauge*, std::less<>> gauge_index_;
  std::map<std::string, HistogramStat*, std::less<>> histogram_index_;
};

/// The process-wide registry all instrumentation records into.
[[nodiscard]] Registry& registry();

}  // namespace socpower::telemetry
