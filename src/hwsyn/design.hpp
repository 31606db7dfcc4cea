// A hardware unit elaborated once per process.
//
// Every estimator that maps a process to hardware needs the same three
// things: the synthesized FSMD netlist (HwImage), the gate program the
// gate-level simulator steps over, and the table of gate-level reactions
// already evaluated on it. The first two are pure functions of the
// process's declaration, the datapath width and the parameters the program
// bakes in, and the table's keys are pure content, so shared_design()
// builds them once per distinct content and hands the same HwDesign to
// every caller (util::SharedBuilds: full-key compare, build outside the
// lock, at most util::kMaxIdleBuilds idle builds). Each estimator keeps only
// its per-run state: a GateSim over `program` and a ReactionCache viewing
// `reactions`, so every estimator of a design replays the reactions any
// other one evaluated. The table is the one mutable part; it is safe to
// share between threads (hw/reaction_cache.hpp), it holds only reactions
// simulated in this process (checkpoint imports stay private to the
// importing view), and it is freed with the design when the build table
// evicts it.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>

#include "cfsm/cfsm.hpp"
#include "hw/gatesim.hpp"
#include "hw/reaction_cache.hpp"
#include "hwsyn/synth.hpp"

namespace socpower::hwsyn {

struct HwDesign {
  HwDesign(HwImage img, hw::TechParams tech, ElectricalParams electrical)
      : image(std::move(img)),
        program(image.netlist.get(), tech, electrical),
        reactions(std::make_shared<hw::ReactionTable>(*image.netlist)) {}

  HwImage image;
  hw::GateProgram program;  // over image.netlist
  /// Every reaction a simulator of `program` has memoized; thread-safe.
  std::shared_ptr<hw::ReactionTable> reactions;
};

/// The shared build of `cfsm` synthesized at the default 32-bit width, with
/// its gate program under TechParams::generic_250nm() and `electrical`. The
/// key covers everything the Cfsm declares (name, triggering and sampled
/// inputs, outputs, reset event, variables, expression arena, s-graph), the
/// width and both parameter sets; counts "hw.design.builds" and
/// "hw.design.reuses".
[[nodiscard]] std::shared_ptr<const HwDesign> shared_design(
    const cfsm::Cfsm& cfsm, ElectricalParams electrical);

/// A simulator over `design`'s shared program, keeping the design alive.
[[nodiscard]] std::unique_ptr<hw::GateSim> make_gate_sim(
    std::shared_ptr<const HwDesign> design);

/// Designs the process-wide table keeps, held or idle (tests).
[[nodiscard]] std::size_t shared_design_count();

}  // namespace socpower::hwsyn
