// Hardware synthesis: s-graph -> single-cycle FSMD netlist (the POLIS
// "HW synthesis" box of Figure 2(a)).
//
// A hardware-mapped CFSM becomes a fully if-converted datapath: every node
// of the s-graph is instantiated, each guarded by an enable signal derived
// from the Test conditions along the way; variable registers latch the
// mux-merged end-of-path values; output event flags/values are the
// enable-gated merges of the Emit nodes. One reaction == one clock cycle of
// the synthesized netlist, which the gate-level power simulator evaluates
// vector by vector.
//
// Restrictions (documented; the behavioral front end accepts them anyway):
// division/modulo are not synthesizable, and shift amounts must be
// constants. Software-mapped processes have no such limits.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cfsm/cfsm.hpp"
#include "hw/gatesim.hpp"
#include "hw/netlist.hpp"
#include "hwsyn/rtl.hpp"

namespace socpower::hwsyn {

struct HwImage {
  std::unique_ptr<hw::Netlist> netlist;
  unsigned width = 32;

  std::vector<cfsm::EventId> local_inputs;   // slot order of input flags/values
  std::vector<cfsm::EventId> local_outputs;  // slot order of output flags/values

  // Primary-input layout: flag of local input i at PI index i; value bits of
  // input i at n_inputs + i*width (LSB first).
  std::size_t n_inputs = 0;
  // Output layout: flag of local output j at output index j; value bits of
  // output j at n_outputs + j*width.
  std::size_t n_outputs = 0;

  /// Q-word of each variable register (introspection/tests).
  std::vector<Word> var_regs;

  [[nodiscard]] int local_input_index(cfsm::EventId e) const;
  [[nodiscard]] int local_output_index(cfsm::EventId e) const;
};

/// Synthesizes the CFSM's transition function. `width` is the datapath word
/// width; with the default 32 the netlist computes bit-exactly what the
/// behavioral model computes.
[[nodiscard]] HwImage synthesize_cfsm(const cfsm::Cfsm& cfsm,
                                      unsigned width = 32);

// -- runtime protocol (used by the co-estimation master) ---------------------

/// Drive one reaction's input events onto the netlist's primary inputs.
void stage_hw_reaction(hw::GateSim& sim, const HwImage& img,
                       const cfsm::ReactionInputs& inputs);

/// Read the emission flags/values after a step(). Order follows
/// local_outputs (synthesis order), which matches s-graph emission order for
/// single-emit-per-event reactions.
[[nodiscard]] std::vector<cfsm::EmittedEvent> read_hw_emissions(
    const hw::GateSim& sim, const HwImage& img);

/// Read a variable register's current value (introspection/tests).
[[nodiscard]] std::int32_t read_hw_var(const hw::GateSim& sim,
                                       const HwImage& img, cfsm::VarId var);

/// Force the variable registers to match the behavioral state (no energy is
/// billed). The master calls this before simulating a reaction whose
/// predecessors were served from the energy cache or skipped by sampling.
void sync_hw_vars(hw::GateSim& sim, const HwImage& img,
                  const cfsm::CfsmState& state);

}  // namespace socpower::hwsyn
