// Software power macro-modeling (paper Section 4.1, Figure 3).
//
// Characterization flow: each macro-operation's template program is compiled
// for the target and measured on the ISS; delay, code size and energy land
// in a parameter file:
//
//   .unit_time cycle
//   .unit_size byte
//   .unit_energy nJ
//   .time AVV 5
//   .time TIVART 11
//   ...
//
// During co-simulation the behavioral model is annotated with these costs:
// executing a path charges the sum of its macro-ops' pre-characterized
// costs, and the ISS is never invoked. The additive model cannot see
// pipeline overlap or cross-operation compiler optimization, so it
// systematically over-estimates — with high relative accuracy (Figure 6).
#pragma once

#include <array>
#include <optional>
#include <span>
#include <string>

#include "iss/iss.hpp"
#include "swsyn/codegen.hpp"
#include "swsyn/macro_op.hpp"
#include "util/units.hpp"

namespace socpower::core {

struct MacroCost {
  double cycles = 0.0;
  Joules energy = 0.0;
  std::uint32_t size_bytes = 0;
};

struct PathEstimate {
  double cycles = 0.0;
  Joules energy = 0.0;
};

class MacroModelLibrary {
 public:
  MacroModelLibrary() = default;

  /// Runs the characterization flow: every macro-op template is executed on
  /// a scratch ISS built from `model`, and the empty-template baseline is
  /// subtracted.
  static MacroModelLibrary characterize(const iss::InstructionPowerModel& model);

  [[nodiscard]] const MacroCost& cost(swsyn::MacroOp op) const;
  void set_cost(swsyn::MacroOp op, MacroCost cost);

  /// Additive estimate for a macro-op stream (one executed path).
  [[nodiscard]] PathEstimate estimate(
      std::span<const swsyn::MacroOp> stream) const;

  /// Serialize to the parameter-file format of Figure 3.
  [[nodiscard]] std::string to_parameter_file() const;
  /// Parse a parameter file; nullopt with `error` set on malformed input.
  static std::optional<MacroModelLibrary> from_parameter_file(
      const std::string& text, std::string* error = nullptr);

 private:
  std::array<MacroCost, swsyn::kNumMacroOps> costs_{};
};

}  // namespace socpower::core
