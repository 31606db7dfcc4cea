// N-core generalization of the producer/consumer system (Figure 1): the
// scenario family that exercises per-core software estimation, the
// MSI-coherent private L1s and the routed interconnect.
//
//   worker[i] (SW, SPARClite, mapped to CPU core i): upon START_i from the
//     environment, performs a checksum-like computation over NUM_BYTES
//     pseudo-bytes (one self-triggered STEP_i transition per byte), then
//     emits DONE with the checksum and writes its result block to a small
//     *shared* buffer — all workers hit the same few cache lines, so with
//     coherence enabled the lines ping-pong between the private L1s and the
//     invalidation/writeback messages load the interconnect.
//   timer (HW): counts TIMER_TICKs and broadcasts the current TIME.
//   collector (HW): upon each DONE, computes N_IT += (TIME - PREV_TIME) +
//     base and runs a loop of N_IT iterations, emitting BYTE_DONE each.
//
// The collector's workload depends on the *actual* spacing of the DONEs,
// which in turn depends on per-core execution times, interconnect
// contention and coherence stalls. A timing-independent behavioral trace
// (unit-delay transitions) collapses the spacing, and with N cores there
// are N interleaved DONE streams to get wrong — the separate-estimation
// error grows with the core count beyond any single-CPU scenario's.
#pragma once

#include <vector>

#include "cfsm/cfsm.hpp"
#include "core/coestimator.hpp"
#include "sim/event_queue.hpp"

namespace socpower::systems {

struct MulticoreParams {
  unsigned cores = 2;
  /// Packets per worker; each packet is one START_i -> DONE computation.
  int num_packets = 8;
  /// Pseudo-bytes per packet (STEP_i transitions).
  int bytes_per_packet = 24;
  /// Environment tick period (cycles) driving the HW timer.
  sim::SimTime tick_period = 64;
  /// Gap between consecutive START events per worker (cycles); workers are
  /// additionally staggered by one cycle each so instants never collide.
  sim::SimTime start_gap = 2;
  /// Fixed per-packet iterations the collector runs on top of the
  /// timing-dependent TIME - PREV_TIME term.
  int collector_base_iterations = 16;
  /// Interconnect the config_template() selects.
  core::InterconnectKind interconnect = core::InterconnectKind::kBus;
  /// Model the shared result buffer through the MSI-coherent L1s.
  bool coherent = true;
  /// Distinct shared-buffer cache lines the workers' writes spread over;
  /// small values maximize invalidation ping-pong.
  unsigned shared_lines = 4;
};

class MulticoreSystem {
 public:
  explicit MulticoreSystem(MulticoreParams params = {});

  [[nodiscard]] const cfsm::Network& network() const { return network_; }
  [[nodiscard]] cfsm::Network& network() { return network_; }

  [[nodiscard]] const std::vector<cfsm::CfsmId>& workers() const {
    return workers_;
  }
  [[nodiscard]] cfsm::CfsmId timer() const { return timer_; }
  [[nodiscard]] cfsm::CfsmId collector() const { return collector_; }
  [[nodiscard]] cfsm::EventId done_event() const { return ev_done_; }
  [[nodiscard]] cfsm::EventId byte_done_event() const { return ev_byte_done_; }

  /// A CoEstimatorConfig with the structural multicore knobs filled in:
  /// cores, interconnect kind, a mesh sized to fit cores + memory (read
  /// only under kNoc) and the coherent data side.
  [[nodiscard]] core::CoEstimatorConfig config_template() const;

  /// Map worker i to SW on core i, timer and collector to HW, and install
  /// the shared-buffer traffic hook (worker i is interconnect master i).
  void configure(core::CoEstimator& est) const;

  /// Environment stimulus: per-worker START bursts plus periodic
  /// TIMER_TICKs covering `horizon` cycles.
  [[nodiscard]] sim::Stimulus stimulus(sim::SimTime horizon) const;

  [[nodiscard]] const MulticoreParams& params() const { return params_; }

 private:
  MulticoreParams params_;
  cfsm::Network network_;
  std::vector<cfsm::CfsmId> workers_;
  cfsm::CfsmId timer_ = cfsm::kNoCfsm;
  cfsm::CfsmId collector_ = cfsm::kNoCfsm;
  std::vector<cfsm::EventId> ev_start_;  // per worker
  std::vector<cfsm::EventId> ev_step_;   // per worker
  cfsm::EventId ev_done_ = -1;
  cfsm::EventId ev_tick_ = -1;
  cfsm::EventId ev_time_ = -1;
  cfsm::EventId ev_iter_ = -1;
  cfsm::EventId ev_byte_done_ = -1;
  cfsm::EventId ev_reset_ = -1;
};

}  // namespace socpower::systems
