#include "serve/system_factory.hpp"

#include <algorithm>
#include <limits>
#include <string_view>
#include <utility>
#include <vector>

#include "systems/multicore.hpp"
#include "systems/prodcons.hpp"
#include "systems/tcpip.hpp"

namespace socpower::serve {

namespace {

// Every value is range-checked before it reaches a system constructor. A
// count or size below 1 crashes or hangs the builders (a negative packet
// count throws from vector::resize, a zero tick period never leaves
// stimulus()), and the caps bound what one request can make the server
// allocate and simulate.
constexpr std::int64_t kMaxCount = 4096;      // packets, bytes, iterations
constexpr std::int64_t kMaxCycles = 1 << 20;  // gaps, periods, horizons
constexpr std::int64_t kMaxPriority = 255;

/// Reads range-checked values out of one SystemParams and remembers which
/// keys it was asked for, so that ok() can reject the keys nobody reads
/// (the factory's strictness contract).
class ParamReader {
 public:
  explicit ParamReader(const SystemParams& params) : params_(params) {}

  /// The first value of `key` when present, else `fallback`. A value outside
  /// [lo, hi] (or odd, with `even`) makes ok() fail, naming the key.
  template <typename T>
  T get(const char* key, T fallback, std::int64_t lo, std::int64_t hi,
        bool even = false) {
    known_.emplace_back(key);
    for (const auto& [k, v] : params_.kv) {
      if (k != key) continue;
      if ((v < lo || v > hi || (even && v % 2 != 0)) && bad_value_.empty())
        bad_value_ = "parameter '" + k + "' = " + std::to_string(v) +
                     " for system '" + params_.name + "' must be " +
                     (even ? "even and " : "") + "in [" + std::to_string(lo) +
                     ", " + std::to_string(hi) + "]";
      return static_cast<T>(v);
    }
    return fallback;
  }

  /// False, with `*error` set, when a key is unknown or a value out of range.
  bool ok(std::string* error) const {
    std::string msg = bad_value_;
    for (const auto& [k, v] : params_.kv) {
      if (std::find(known_.begin(), known_.end(), k) != known_.end()) continue;
      msg = "unknown parameter '" + k + "' for system '" + params_.name + "'";
      break;
    }
    if (msg.empty()) return true;
    if (error) *error = std::move(msg);
    return false;
  }

 private:
  const SystemParams& params_;
  std::vector<std::string_view> known_;
  std::string bad_value_;
};

class TcpIpInstance final : public SystemInstance {
 public:
  explicit TcpIpInstance(systems::TcpIpParams p) : sys_(p) {}

  [[nodiscard]] const cfsm::Network& network() const override {
    return sys_.network();
  }
  void configure(core::CoEstimator& est) override { sys_.configure(est); }
  [[nodiscard]] sim::Stimulus stimulus() const override {
    return sys_.stimulus();
  }

 private:
  systems::TcpIpSystem sys_;
};

class ProdConsInstance final : public SystemInstance {
 public:
  ProdConsInstance(systems::ProdConsParams p, sim::SimTime horizon)
      : sys_(p), horizon_(horizon) {}

  [[nodiscard]] const cfsm::Network& network() const override {
    return sys_.network();
  }
  void configure(core::CoEstimator& est) override { sys_.configure(est); }
  [[nodiscard]] sim::Stimulus stimulus() const override {
    return sys_.stimulus(horizon_);
  }

 private:
  systems::ProdConsSystem sys_;
  sim::SimTime horizon_;
};

class MulticoreInstance final : public SystemInstance {
 public:
  MulticoreInstance(systems::MulticoreParams p, sim::SimTime horizon)
      : sys_(p), horizon_(horizon) {}

  [[nodiscard]] const cfsm::Network& network() const override {
    return sys_.network();
  }
  void configure(core::CoEstimator& est) override { sys_.configure(est); }
  [[nodiscard]] sim::Stimulus stimulus() const override {
    return sys_.stimulus(horizon_);
  }
  [[nodiscard]] unsigned min_cores() const override {
    return sys_.params().cores;
  }
  [[nodiscard]] core::CoEstimatorConfig config_template() const override {
    return sys_.config_template();
  }

 private:
  systems::MulticoreSystem sys_;
  sim::SimTime horizon_;
};

}  // namespace

std::unique_ptr<SystemInstance> make_system(const SystemParams& params,
                                            std::string* error) {
  ParamReader r(params);
  if (params.name == "tcpip") {
    systems::TcpIpParams p;
    p.num_packets = r.get("num_packets", p.num_packets, 1, kMaxCount);
    p.packet_bytes = r.get("packet_bytes", p.packet_bytes, 1, kMaxCount);
    p.packet_gap = r.get("packet_gap", p.packet_gap, 0, kMaxCycles);
    p.dma_block_size = r.get("dma_block_size", p.dma_block_size, 2, kMaxCount,
                             /*even=*/true);
    p.ip_check_in_hw = r.get("ip_check_in_hw", p.ip_check_in_hw, 0, 1);
    p.checksum_rtl_estimator =
        r.get("checksum_rtl_estimator", p.checksum_rtl_estimator, 0, 1);
    // The seed only keys the payload generator: every value is valid.
    p.seed = r.get("seed", p.seed, std::numeric_limits<std::int64_t>::min(),
                   std::numeric_limits<std::int64_t>::max());
    p.rtos_prio_create =
        r.get("rtos_prio_create", p.rtos_prio_create, 0, kMaxPriority);
    p.rtos_prio_ipcheck =
        r.get("rtos_prio_ipcheck", p.rtos_prio_ipcheck, 0, kMaxPriority);
    if (!r.ok(error)) return nullptr;
    return std::make_unique<TcpIpInstance>(p);
  }
  if (params.name == "prodcons") {
    systems::ProdConsParams p;
    p.num_packets = r.get("num_packets", p.num_packets, 1, kMaxCount);
    p.bytes_per_packet =
        r.get("bytes_per_packet", p.bytes_per_packet, 1, kMaxCount);
    p.tick_period = r.get("tick_period", p.tick_period, 1, kMaxCycles);
    p.start_gap = r.get("start_gap", p.start_gap, 0, kMaxCycles);
    p.consumer_base_iterations = r.get(
        "consumer_base_iterations", p.consumer_base_iterations, 1, kMaxCount);
    const auto horizon = r.get("horizon", sim::SimTime{4096}, 1, kMaxCycles);
    if (!r.ok(error)) return nullptr;
    return std::make_unique<ProdConsInstance>(p, horizon);
  }
  if (params.name == "multicore") {
    systems::MulticoreParams p;
    p.cores = r.get("cores", p.cores, 1, 64);
    p.num_packets = r.get("num_packets", p.num_packets, 1, kMaxCount);
    p.bytes_per_packet =
        r.get("bytes_per_packet", p.bytes_per_packet, 1, kMaxCount);
    p.tick_period = r.get("tick_period", p.tick_period, 1, kMaxCycles);
    p.start_gap = r.get("start_gap", p.start_gap, 0, kMaxCycles);
    p.collector_base_iterations = r.get(
        "collector_base_iterations", p.collector_base_iterations, 1, kMaxCount);
    p.shared_lines = r.get("shared_lines", p.shared_lines, 1, kMaxCount);
    const auto horizon = r.get("horizon", sim::SimTime{4096}, 1, kMaxCycles);
    if (!r.ok(error)) return nullptr;
    return std::make_unique<MulticoreInstance>(p, horizon);
  }
  if (error) *error = "unknown system '" + params.name + "'";
  return nullptr;
}

}  // namespace socpower::serve
