// Per-layer time ledger measured from outside the program.
//
// register_timed_backends() adds one timing wrapper per built-in backend to
// core::estimator_registry() under "bench.<name>" (bench.sw.iss around
// sw.iss, bench.hw.gate around hw.gate, ...). A wrapper implements the same
// role interface as the backend it wraps, forwards every virtual call, and
// adds the call's steady_clock duration to its layer's totals; deferred
// FlushJob::work closures are wrapped the same way. Selecting the wrappers
// through CoEstimatorConfig::estimators (or serve::StructuralConfig) is the
// only change a traced run makes, so its results must stay bit-identical to
// an unwrapped run's.
//
// Totals are relaxed atomics: the serve workload prices requests on the
// server's worker thread while the client reads the ledger between RPCs.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "core/coestimator_config.hpp"

namespace e2ebench {

/// The backend layers a wrapper can belong to (module names).
enum class Layer { kIss, kHw, kBus, kCache };
inline constexpr std::size_t kLayerCount = 4;

[[nodiscard]] const char* layer_name(Layer layer);

/// Plain copy of the ledger totals; differences of two snapshots give one
/// op's share.
struct LedgerSnapshot {
  struct PerLayer {
    std::uint64_t calls = 0;
    std::uint64_t busy_ns = 0;     ///< inside wrapper calls, prepare() excluded
    std::uint64_t prepare_ns = 0;  ///< inside prepare()
  };
  std::array<PerLayer, kLayerCount> layers{};
  std::uint64_t hw_cost_calls = 0;
  std::uint64_t hw_enqueue_calls = 0;
  std::uint64_t hw_flush_ns = 0;  ///< inside wrapped FlushJob::work (in busy_ns)

  [[nodiscard]] const PerLayer& operator[](Layer l) const {
    return layers[static_cast<std::size_t>(l)];
  }
  [[nodiscard]] std::uint64_t busy_ns_total() const;
  [[nodiscard]] LedgerSnapshot operator-(const LedgerSnapshot& base) const;
};

/// Current totals of every wrapper ever created in this process.
[[nodiscard]] LedgerSnapshot ledger_snapshot();

/// Registers the bench.* wrappers; idempotent.
void register_timed_backends();

/// An estimator selection with every role pointing at its wrapper.
[[nodiscard]] socpower::core::EstimatorSelection timed_selection();

/// The wrapped name of a backend: "bench." + name.
[[nodiscard]] std::string timed_name(const std::string& name);

}  // namespace e2ebench
