// Server-side construction of the benchmark systems from wire-shipped
// SystemParams.
//
// A SystemInstance owns the behavioral system (CFSM network, hooks, packet
// contents) for the lifetime of its session: the network must outlive the
// CoEstimator that simulates it, and the environment hooks capture the
// system object. The factory is strict — an unknown system name or
// parameter key is an error, not a default — because SystemParams is half
// of the session identity and a silently-dropped key would alias two
// different workloads onto one session.
#pragma once

#include <memory>
#include <string>

#include "core/coestimator.hpp"
#include "serve/protocol.hpp"
#include "sim/event_queue.hpp"

namespace socpower::serve {

class SystemInstance {
 public:
  virtual ~SystemInstance() = default;

  [[nodiscard]] virtual const cfsm::Network& network() const = 0;
  /// Maps processes and installs hooks; call before est.prepare().
  virtual void configure(core::CoEstimator& est) = 0;
  /// The canonical stimulus of this system configuration. Deterministic:
  /// every estimate request of a session replays the same occurrences.
  [[nodiscard]] virtual sim::Stimulus stimulus() const = 0;
  /// Smallest config.cores this system maps onto. Session::create rejects a
  /// structural config below this BEFORE configure() runs — map_sw aborts
  /// the process on an out-of-range core, which a server must never let a
  /// request reach.
  [[nodiscard]] virtual unsigned min_cores() const { return 1; }
  /// The config a session starts from; Session::create applies the
  /// client's structural knobs on top, so fields outside the knob table
  /// (e.g. the multicore NoC mesh) come from here.
  [[nodiscard]] virtual core::CoEstimatorConfig config_template() const {
    return {};
  }
};

/// Builds the named system. Returns nullptr with `*error` set on an unknown
/// name or parameter key, or on a value outside its range; the error names
/// the key and the value.
///
/// Recognized parameters (all integers; booleans as 0/1). Counts and sizes
/// are in [1, 4096], gaps in [0, 2^20] cycles, periods and horizons in
/// [1, 2^20] cycles, RTOS priorities in [0, 255]:
///   tcpip:    num_packets, packet_bytes, packet_gap, dma_block_size (also
///             even), ip_check_in_hw, checksum_rtl_estimator, seed (any
///             value), rtos_prio_create, rtos_prio_ipcheck
///   prodcons: num_packets, bytes_per_packet, tick_period, start_gap,
///             consumer_base_iterations, horizon
///   multicore: cores (in [1, 64]), num_packets, bytes_per_packet,
///             tick_period, start_gap, collector_base_iterations,
///             shared_lines, horizon
///             (the structural config must request >= `cores` cores; its
///             interconnect/coherence fields select bus vs NoC and MSI)
[[nodiscard]] std::unique_ptr<SystemInstance> make_system(
    const SystemParams& params, std::string* error);

}  // namespace socpower::serve
