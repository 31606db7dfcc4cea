// Gate-level netlist for the hardware partition.
//
// The paper's hardware power estimator is a modified SIS power simulator:
// simulate the gate-level netlist for a sequence of input vectors and report
// energy cycle by cycle, computed from weighted switching activity. This
// module provides the netlist representation; gatesim.hpp the simulator.
//
// Primitive cells: INV/BUF, 2-input AND/OR/NAND/NOR/XOR/XNOR, MUX2 and DFF.
// Each net carries an effective capacitance (cell output + wire per fanout);
// a toggle on a net costs 1/2 * Ceff * Vdd^2.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/units.hpp"

namespace socpower::hw {

using NetId = std::int32_t;
inline constexpr NetId kNoNet = -1;

enum class GateType : std::uint8_t {
  kInv, kBuf,
  kAnd2, kOr2, kNand2, kNor2, kXor2, kXnor2,
  kMux2,  // in0 = a (sel == 0), in1 = b (sel == 1), in2 = sel
  kGateTypeCount,
};

inline constexpr std::size_t kNumGateTypes =
    static_cast<std::size_t>(GateType::kGateTypeCount);

[[nodiscard]] const char* gate_type_name(GateType t);
[[nodiscard]] int gate_arity(GateType t);

/// Combinational function of the cell. MUX2 selects b when sel (c) is set.
[[nodiscard]] constexpr bool eval_gate(GateType t, bool a, bool b, bool c) {
  switch (t) {
    case GateType::kInv: return !a;
    case GateType::kBuf: return a;
    case GateType::kAnd2: return a && b;
    case GateType::kOr2: return a || b;
    case GateType::kNand2: return !(a && b);
    case GateType::kNor2: return !(a || b);
    case GateType::kXor2: return a != b;
    case GateType::kXnor2: return a == b;
    case GateType::kMux2: return c ? b : a;
    case GateType::kGateTypeCount: break;
  }
  return false;
}

struct Gate {
  GateType type = GateType::kBuf;
  NetId out = kNoNet;
  NetId in[3] = {kNoNet, kNoNet, kNoNet};
};

struct Dff {
  NetId d = kNoNet;
  NetId q = kNoNet;
  bool init = false;
};

/// Technology parameters (0.25um-class defaults). Capacitances in farads.
struct TechParams {
  double cell_output_cap_f[kNumGateTypes] = {};
  double dff_output_cap_f = 28e-15;
  double wire_cap_per_fanout_f = 6e-15;
  double input_net_cap_f = 12e-15;
  /// Clock network charge per DFF per cycle (clock buffers + local wire).
  double clock_cap_per_dff_f = 14e-15;

  static TechParams generic_250nm();
};

/// Result of Netlist::levelize().
struct Levelization {
  std::vector<std::uint32_t> order;  ///< gates in topological order
  /// Per gate: 0 when no input is gate-driven, else 1 + the highest level
  /// among the gates driving its inputs.
  std::vector<std::uint32_t> level;
  std::uint32_t num_levels = 0;
  /// net -> consuming gates, CSR-flattened: the gates consuming net n are
  /// consumers[consumer_offsets[n] .. consumer_offsets[n+1]), ascending by
  /// gate index, a gate listed once per input it reads n on.
  std::vector<std::uint32_t> consumer_offsets;
  std::vector<std::uint32_t> consumers;
};

class Netlist {
 public:
  Netlist();

  // -- construction ---------------------------------------------------------
  NetId add_net();
  /// Constant nets (never toggle, cost nothing).
  [[nodiscard]] NetId const0() const { return const0_; }
  [[nodiscard]] NetId const1() const { return const1_; }

  NetId add_primary_input(std::string name);
  void mark_output(NetId n, std::string name);

  /// Adds a gate; returns its (new) output net.
  NetId add_gate(GateType t, NetId a, NetId b = kNoNet, NetId c = kNoNet);
  /// Adds a gate driving an existing undriven net (created with add_net()).
  /// This is how forward references are built: create the net, consume it,
  /// then attach its driver. Combinational feedback loops become expressible
  /// here, which is exactly why GateSim refuses to simulate a netlist whose
  /// levelization fails.
  void add_gate_driving(NetId out, GateType t, NetId a, NetId b = kNoNet,
                        NetId c = kNoNet);
  /// Adds a flip-flop whose output is a fresh net; the D input may be
  /// connected later with connect_dff_d (registers feeding back on logic
  /// computed from their own outputs).
  NetId add_dff(bool init = false);
  void connect_dff_d(NetId q, NetId d);

  // -- introspection --------------------------------------------------------
  [[nodiscard]] std::size_t net_count() const { return n_nets_; }
  [[nodiscard]] std::size_t gate_count() const { return gates_.size(); }
  [[nodiscard]] std::size_t dff_count() const { return dffs_.size(); }
  [[nodiscard]] const std::vector<Gate>& gates() const { return gates_; }
  [[nodiscard]] const std::vector<Dff>& dffs() const { return dffs_; }
  [[nodiscard]] const std::vector<NetId>& primary_inputs() const {
    return inputs_;
  }
  [[nodiscard]] const std::vector<std::pair<NetId, std::string>>& outputs()
      const {
    return outputs_;
  }
  [[nodiscard]] std::size_t fanout(NetId n) const;

  /// Kahn's topological order of the gates plus what an event-driven
  /// simulator needs next to it: each gate's level and the consumer lists.
  /// `order` is empty (and `*error` set) if the combinational part has a
  /// cycle.
  [[nodiscard]] Levelization levelize(std::string* error) const;

  /// Effective capacitance of a net under `tech`.
  [[nodiscard]] double net_capacitance(NetId n, const TechParams& tech) const;

  /// Sanity checks (every gate input driven, every DFF D connected, no
  /// combinational cycles). Empty string on success.
  [[nodiscard]] std::string validate() const;

 private:
  std::size_t n_nets_ = 0;
  NetId const0_ = kNoNet;
  NetId const1_ = kNoNet;
  std::vector<Gate> gates_;
  std::vector<Dff> dffs_;
  std::vector<NetId> inputs_;
  std::vector<std::pair<NetId, std::string>> outputs_;
  std::vector<std::int32_t> driver_gate_;  // net -> gate index, -2 dff, -3 PI/const, -1 none
  std::vector<std::uint32_t> fanout_;
};

}  // namespace socpower::hw
