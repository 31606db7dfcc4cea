#include "hw/netlist.hpp"

#include <algorithm>
#include <cassert>

namespace socpower::hw {

const char* gate_type_name(GateType t) {
  switch (t) {
    case GateType::kInv: return "INV";
    case GateType::kBuf: return "BUF";
    case GateType::kAnd2: return "AND2";
    case GateType::kOr2: return "OR2";
    case GateType::kNand2: return "NAND2";
    case GateType::kNor2: return "NOR2";
    case GateType::kXor2: return "XOR2";
    case GateType::kXnor2: return "XNOR2";
    case GateType::kMux2: return "MUX2";
    case GateType::kGateTypeCount: break;
  }
  return "?";
}

int gate_arity(GateType t) {
  switch (t) {
    case GateType::kInv:
    case GateType::kBuf:
      return 1;
    case GateType::kMux2:
      return 3;
    default:
      return 2;
  }
}

TechParams TechParams::generic_250nm() {
  TechParams t;
  auto set = [&t](GateType g, double ff) {
    t.cell_output_cap_f[static_cast<std::size_t>(g)] = ff * 1e-15;
  };
  set(GateType::kInv, 8.0);
  set(GateType::kBuf, 10.0);
  set(GateType::kAnd2, 14.0);
  set(GateType::kOr2, 14.0);
  set(GateType::kNand2, 11.0);
  set(GateType::kNor2, 11.0);
  set(GateType::kXor2, 19.0);
  set(GateType::kXnor2, 19.0);
  set(GateType::kMux2, 17.0);
  return t;
}

Netlist::Netlist() {
  const0_ = add_net();
  driver_gate_[static_cast<std::size_t>(const0_)] = -3;
  const1_ = add_net();
  driver_gate_[static_cast<std::size_t>(const1_)] = -3;
}

NetId Netlist::add_net() {
  driver_gate_.push_back(-1);
  fanout_.push_back(0);
  return static_cast<NetId>(n_nets_++);
}

NetId Netlist::add_primary_input(std::string name) {
  (void)name;  // names retained only for outputs; PIs are positional
  const NetId n = add_net();
  driver_gate_[static_cast<std::size_t>(n)] = -3;
  inputs_.push_back(n);
  return n;
}

void Netlist::mark_output(NetId n, std::string name) {
  assert(n >= 0 && static_cast<std::size_t>(n) < n_nets_);
  outputs_.emplace_back(n, std::move(name));
}

NetId Netlist::add_gate(GateType t, NetId a, NetId b, NetId c) {
  const NetId out = add_net();
  add_gate_driving(out, t, a, b, c);
  return out;
}

void Netlist::add_gate_driving(NetId out, GateType t, NetId a, NetId b,
                               NetId c) {
  const int arity = gate_arity(t);
  assert(out >= 0 && static_cast<std::size_t>(out) < n_nets_);
  assert(driver_gate_[static_cast<std::size_t>(out)] == -1 &&
         "net already has a driver");
  assert(a != kNoNet);
  assert((arity < 2) == (b == kNoNet));
  assert((arity < 3) == (c == kNoNet));
  Gate g;
  g.type = t;
  g.out = out;
  g.in[0] = a;
  g.in[1] = b;
  g.in[2] = c;
  gates_.push_back(g);
  driver_gate_[static_cast<std::size_t>(out)] =
      static_cast<std::int32_t>(gates_.size() - 1);
  for (int i = 0; i < arity; ++i) ++fanout_[static_cast<std::size_t>(g.in[i])];
}

NetId Netlist::add_dff(bool init) {
  const NetId q = add_net();
  driver_gate_[static_cast<std::size_t>(q)] = -2;
  dffs_.push_back({kNoNet, q, init});
  return q;
}

void Netlist::connect_dff_d(NetId q, NetId d) {
  for (auto& ff : dffs_) {
    if (ff.q == q) {
      assert(ff.d == kNoNet && "DFF D already connected");
      ff.d = d;
      ++fanout_[static_cast<std::size_t>(d)];
      return;
    }
  }
  assert(false && "no DFF with this Q net");
}

std::size_t Netlist::fanout(NetId n) const {
  assert(n >= 0 && static_cast<std::size_t>(n) < n_nets_);
  return fanout_[static_cast<std::size_t>(n)];
}

Levelization Netlist::levelize(std::string* error) const {
  // Kahn's algorithm over gate->gate dependencies. PI, constant and DFF Q
  // nets are sources. Consumer lists are built CSR-flattened (one offset
  // array, one flat gate array) rather than as a vector per net.
  Levelization lv;
  lv.consumer_offsets.assign(n_nets_ + 1, 0);
  for (const Gate& g : gates_)
    for (int i = 0; i < gate_arity(g.type); ++i)
      ++lv.consumer_offsets[static_cast<std::size_t>(g.in[i]) + 1];
  for (std::size_t n = 1; n <= n_nets_; ++n)
    lv.consumer_offsets[n] += lv.consumer_offsets[n - 1];
  lv.consumers.resize(lv.consumer_offsets.back());
  std::vector<std::uint32_t> pending(gates_.size(), 0);
  {
    std::vector<std::uint32_t> fill(lv.consumer_offsets.begin(),
                                    lv.consumer_offsets.end() - 1);
    for (std::size_t gi = 0; gi < gates_.size(); ++gi) {
      const Gate& g = gates_[gi];
      for (int i = 0; i < gate_arity(g.type); ++i) {
        const auto in = static_cast<std::size_t>(g.in[i]);
        lv.consumers[fill[in]++] = static_cast<std::uint32_t>(gi);
        if (driver_gate_[in] >= 0) ++pending[gi];
      }
    }
  }
  lv.level.assign(gates_.size(), 0);
  lv.order.reserve(gates_.size());
  for (std::size_t gi = 0; gi < gates_.size(); ++gi)
    if (pending[gi] == 0) lv.order.push_back(static_cast<std::uint32_t>(gi));
  for (std::size_t head = 0; head < lv.order.size(); ++head) {
    const std::uint32_t gi = lv.order[head];
    const auto out = static_cast<std::size_t>(gates_[gi].out);
    const std::uint32_t next_level = lv.level[gi] + 1;
    for (std::uint32_t c = lv.consumer_offsets[out];
         c < lv.consumer_offsets[out + 1]; ++c) {
      const std::uint32_t ci = lv.consumers[c];
      lv.level[ci] = std::max(lv.level[ci], next_level);
      if (--pending[ci] == 0) lv.order.push_back(ci);
    }
  }
  if (lv.order.size() != gates_.size()) {
    if (error) {
      // Name one gate stuck on the cycle so the failing netlist is
      // identifiable from the abort message alone.
      *error = "combinational cycle in netlist";
      for (std::size_t gi = 0; gi < gates_.size(); ++gi) {
        if (pending[gi] != 0) {
          *error += " (through gate " + std::to_string(gi) + " " +
                    gate_type_name(gates_[gi].type) + " -> net " +
                    std::to_string(gates_[gi].out) + ")";
          break;
        }
      }
    }
    lv.order.clear();
    return lv;
  }
  for (const std::uint32_t l : lv.level)
    lv.num_levels = std::max(lv.num_levels, l + 1);
  if (error) error->clear();
  return lv;
}

double Netlist::net_capacitance(NetId n, const TechParams& tech) const {
  assert(n >= 0 && static_cast<std::size_t>(n) < n_nets_);
  if (n == const0_ || n == const1_) return 0.0;
  const auto drv = driver_gate_[static_cast<std::size_t>(n)];
  double cap = tech.wire_cap_per_fanout_f *
               static_cast<double>(fanout_[static_cast<std::size_t>(n)]);
  if (drv >= 0)
    cap += tech.cell_output_cap_f[static_cast<std::size_t>(
        gates_[static_cast<std::size_t>(drv)].type)];
  else if (drv == -2)
    cap += tech.dff_output_cap_f;
  else
    cap += tech.input_net_cap_f;
  return cap;
}

std::string Netlist::validate() const {
  for (std::size_t gi = 0; gi < gates_.size(); ++gi) {
    const Gate& g = gates_[gi];
    for (int i = 0; i < gate_arity(g.type); ++i) {
      const NetId in = g.in[i];
      if (in < 0 || static_cast<std::size_t>(in) >= n_nets_)
        return "gate " + std::to_string(gi) + " input " + std::to_string(i) +
               " is not a valid net";
      if (driver_gate_[static_cast<std::size_t>(in)] == -1)
        return "gate " + std::to_string(gi) + " input net " +
               std::to_string(in) + " has no driver";
    }
  }
  for (std::size_t fi = 0; fi < dffs_.size(); ++fi)
    if (dffs_[fi].d == kNoNet)
      return "DFF " + std::to_string(fi) + " has unconnected D";
  std::string err;
  (void)levelize(&err);
  return err;
}

}  // namespace socpower::hw
