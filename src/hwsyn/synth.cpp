#include "hwsyn/synth.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

namespace socpower::hwsyn {

namespace {

using cfsm::ExprArena;
using cfsm::ExprId;
using cfsm::ExprNode;
using cfsm::ExprOp;
using cfsm::NodeId;
using cfsm::NodeKind;
using cfsm::SNode;

struct SynthContext {
  RtlBuilder* rtl = nullptr;
  const cfsm::Cfsm* cfsm = nullptr;
  const HwImage* img = nullptr;
  unsigned width = 32;
  std::vector<Word> input_flags1;   // one-bit words (flag nets)
  std::vector<Word> input_values;
};

/// Refuses the hardware mapping in every build type: a netlist that
/// silently computes another function than its CFSM would misprice every
/// reaction of the ASIC.
[[noreturn]] void refuse(const SynthContext& sc, const char* what) {
  std::fprintf(stderr,
               "hwsyn: process \"%s\" cannot be mapped to hardware: %s; "
               "map it to software instead\n",
               sc.cfsm->name().c_str(), what);
  std::abort();
}

Word synth_expr(SynthContext& sc, ExprId e, const std::vector<Word>& vars) {
  RtlBuilder& rtl = *sc.rtl;
  const ExprArena& a = sc.cfsm->arena();
  const ExprNode& n = a.at(e);
  const unsigned w = sc.width;
  switch (n.op) {
    case ExprOp::kConst:
      return rtl.constant(static_cast<std::uint32_t>(n.value), w);
    case ExprOp::kVar:
      return vars[static_cast<std::size_t>(n.value)];
    case ExprOp::kEventValue: {
      const int li = sc.img->local_input_index(n.value);
      assert(li >= 0 && "event value read from non-input");
      return sc.input_values[static_cast<std::size_t>(li)];
    }
    case ExprOp::kEventPresent: {
      const int li = sc.img->local_input_index(n.value);
      assert(li >= 0 && "presence test of non-input");
      return rtl.from_bit(sc.input_flags1[static_cast<std::size_t>(li)][0], w);
    }
    default:
      break;
  }
  const Word lhs = synth_expr(sc, n.lhs, vars);
  if (cfsm::expr_arity(n.op) == 1) {
    switch (n.op) {
      case ExprOp::kNeg: return rtl.neg(lhs);
      case ExprOp::kBitNot: return rtl.word_not(lhs);
      case ExprOp::kLogicNot:
        return rtl.from_bit(rtl.bit_not(rtl.reduce_or(lhs)), w);
      default: assert(false);
    }
  }
  // Constant shift amounts are resolved structurally.
  if (n.op == ExprOp::kShl || n.op == ExprOp::kShr) {
    const ExprNode& rn = a.at(n.rhs);
    if (rn.op != ExprOp::kConst)
      refuse(sc, n.op == ExprOp::kShl
                     ? "the shift amount of '<<' is not a constant"
                     : "the shift amount of '>>' is not a constant");
    const unsigned k = static_cast<std::uint32_t>(rn.value) & 31u;
    return n.op == ExprOp::kShl ? rtl.shl_const(lhs, k)
                                : rtl.shr_arith_const(lhs, k);
  }
  const Word rhs = synth_expr(sc, n.rhs, vars);
  switch (n.op) {
    case ExprOp::kAdd: return rtl.add(lhs, rhs);
    case ExprOp::kSub: return rtl.sub(lhs, rhs);
    case ExprOp::kMul: return rtl.mul(lhs, rhs);
    case ExprOp::kBitAnd: return rtl.word_and(lhs, rhs);
    case ExprOp::kBitOr: return rtl.word_or(lhs, rhs);
    case ExprOp::kBitXor: return rtl.word_xor(lhs, rhs);
    case ExprOp::kEq: return rtl.from_bit(rtl.eq(lhs, rhs), w);
    case ExprOp::kNe: return rtl.from_bit(rtl.bit_not(rtl.eq(lhs, rhs)), w);
    case ExprOp::kLt: return rtl.from_bit(rtl.lt_signed(lhs, rhs), w);
    case ExprOp::kLe:
      return rtl.from_bit(rtl.bit_not(rtl.lt_signed(rhs, lhs)), w);
    case ExprOp::kGt: return rtl.from_bit(rtl.lt_signed(rhs, lhs), w);
    case ExprOp::kGe:
      return rtl.from_bit(rtl.bit_not(rtl.lt_signed(lhs, rhs)), w);
    case ExprOp::kLogicAnd:
      return rtl.from_bit(
          rtl.bit_and(rtl.reduce_or(lhs), rtl.reduce_or(rhs)), w);
    case ExprOp::kLogicOr:
      return rtl.from_bit(rtl.bit_or(rtl.reduce_or(lhs), rtl.reduce_or(rhs)),
                          w);
    case ExprOp::kDiv: refuse(sc, "operator '/' is not synthesizable");
    case ExprOp::kMod: refuse(sc, "operator '%' is not synthesizable");
    default:
      assert(false);
      return rtl.constant(0, w);
  }
}

/// Topological order of reachable s-graph nodes (preds before succs).
std::vector<NodeId> topo_nodes(const cfsm::SGraph& g) {
  std::vector<int> indeg(g.node_count(), -1);  // -1 == unreachable
  // BFS to find reachable set and count in-degrees.
  std::vector<NodeId> work{g.root()};
  indeg[static_cast<std::size_t>(g.root())] = 0;
  auto visit_edge = [&](NodeId to) {
    if (to == cfsm::kNoNode) return;
    auto& d = indeg[static_cast<std::size_t>(to)];
    if (d == -1) {
      d = 1;
      work.push_back(to);
    } else {
      ++d;
    }
  };
  for (std::size_t i = 0; i < work.size(); ++i) {
    const SNode& n = g.node(work[i]);
    if (n.kind == NodeKind::kEnd) continue;
    visit_edge(n.next);
    if (n.kind == NodeKind::kTest) visit_edge(n.next_else);
  }
  std::vector<NodeId> order;
  order.reserve(work.size());
  std::vector<NodeId> ready{g.root()};
  while (!ready.empty()) {
    const NodeId id = ready.back();
    ready.pop_back();
    order.push_back(id);
    const SNode& n = g.node(id);
    if (n.kind == NodeKind::kEnd) continue;
    auto relax = [&](NodeId to) {
      if (to == cfsm::kNoNode) return;
      if (--indeg[static_cast<std::size_t>(to)] == 0) ready.push_back(to);
    };
    relax(n.next);
    if (n.kind == NodeKind::kTest) relax(n.next_else);
  }
  assert(order.size() == work.size() && "cycle in s-graph");
  return order;
}

struct Incoming {
  NetId enable = hw::kNoNet;
  std::vector<Word> vars;
};

}  // namespace

int HwImage::local_input_index(cfsm::EventId e) const {
  for (std::size_t i = 0; i < local_inputs.size(); ++i)
    if (local_inputs[i] == e) return static_cast<int>(i);
  return -1;
}

int HwImage::local_output_index(cfsm::EventId e) const {
  for (std::size_t i = 0; i < local_outputs.size(); ++i)
    if (local_outputs[i] == e) return static_cast<int>(i);
  return -1;
}

HwImage synthesize_cfsm(const cfsm::Cfsm& cfsm, unsigned width) {
  assert(cfsm.graph().validate().empty() && "invalid s-graph");
  HwImage img;
  img.width = width;
  img.netlist = std::make_unique<hw::Netlist>();
  RtlBuilder rtl(img.netlist.get());

  img.local_inputs = cfsm.inputs();
  for (cfsm::EventId e : cfsm.sampled_inputs()) img.local_inputs.push_back(e);
  img.local_outputs = cfsm.outputs();
  img.n_inputs = img.local_inputs.size();
  img.n_outputs = img.local_outputs.size();

  SynthContext sc;
  sc.rtl = &rtl;
  sc.cfsm = &cfsm;
  sc.img = &img;
  sc.width = width;

  // Primary inputs: all flags first (PI index == local input index), then
  // the value words.
  std::vector<NetId> flag_nets;
  for (std::size_t i = 0; i < img.n_inputs; ++i)
    flag_nets.push_back(img.netlist->add_primary_input(
        "in_flag" + std::to_string(i)));
  for (std::size_t i = 0; i < img.n_inputs; ++i)
    sc.input_values.push_back(
        rtl.input_word("in_val" + std::to_string(i), width));
  for (const NetId f : flag_nets) sc.input_flags1.push_back(Word{f});

  // Variable registers.
  for (const auto& v : cfsm.vars())
    img.var_regs.push_back(
        rtl.reg_word(static_cast<std::uint32_t>(v.init), width));

  // Symbolic execution over the s-graph in topological order.
  const auto& g = cfsm.graph();
  std::vector<std::vector<Incoming>> incoming(g.node_count());
  incoming[static_cast<std::size_t>(g.root())].push_back(
      {img.netlist->const1(), img.var_regs});

  struct EmitRecord {
    cfsm::EventId event;
    NetId enable;
    Word value;
  };
  std::vector<EmitRecord> emits;
  std::vector<Incoming> finals;  // states reaching End nodes

  for (const NodeId id : topo_nodes(g)) {
    auto& inc = incoming[static_cast<std::size_t>(id)];
    assert(!inc.empty() && "reachable node with no incoming state");
    // Merge incoming states.
    NetId enable = inc[0].enable;
    std::vector<Word> vars = inc[0].vars;
    for (std::size_t k = 1; k < inc.size(); ++k) {
      for (std::size_t v = 0; v < vars.size(); ++v)
        if (inc[k].vars[v] != vars[v])
          vars[v] = rtl.mux(inc[k].enable, inc[k].vars[v], vars[v]);
      enable = rtl.bit_or(enable, inc[k].enable);
    }
    const SNode& n = g.node(id);
    switch (n.kind) {
      case NodeKind::kEnd:
        finals.push_back({enable, vars});
        break;
      case NodeKind::kAssign: {
        const Word rhs = synth_expr(sc, n.expr, vars);
        vars[static_cast<std::size_t>(n.var)] = rhs;
        incoming[static_cast<std::size_t>(n.next)].push_back({enable, vars});
        break;
      }
      case NodeKind::kEmit: {
        const Word val = n.expr == cfsm::kNoExpr
                             ? rtl.constant(0, width)
                             : synth_expr(sc, n.expr, vars);
        emits.push_back({n.event, enable, val});
        incoming[static_cast<std::size_t>(n.next)].push_back({enable, vars});
        break;
      }
      case NodeKind::kTest: {
        const Word cond = synth_expr(sc, n.expr, vars);
        const NetId nz = rtl.reduce_or(cond);
        const NetId then_en = rtl.bit_and(enable, nz);
        const NetId else_en = rtl.bit_and(enable, rtl.bit_not(nz));
        incoming[static_cast<std::size_t>(n.next)].push_back({then_en, vars});
        incoming[static_cast<std::size_t>(n.next_else)].push_back(
            {else_en, vars});
        break;
      }
    }
  }

  // Register next-state: merge final states (exactly one is enabled each
  // reaction, and the enables of the finals partition the constant-1 root
  // enable, so the chain-mux selects the executed path's values).
  assert(!finals.empty());
  std::vector<Word> next_vars = finals[0].vars;
  for (std::size_t k = 1; k < finals.size(); ++k)
    for (std::size_t v = 0; v < next_vars.size(); ++v)
      if (finals[k].vars[v] != next_vars[v])
        next_vars[v] =
            rtl.mux(finals[k].enable, finals[k].vars[v], next_vars[v]);
  for (std::size_t v = 0; v < img.var_regs.size(); ++v)
    rtl.connect_reg(img.var_regs[v], next_vars[v]);

  // Output events: flags first, then value words, in local_outputs order.
  std::vector<NetId> out_flags(img.n_outputs, img.netlist->const0());
  std::vector<Word> out_values(img.n_outputs, rtl.constant(0, width));
  for (const EmitRecord& er : emits) {
    const int j = img.local_output_index(er.event);
    assert(j >= 0 && "emit of an undeclared output event");
    const auto ji = static_cast<std::size_t>(j);
    out_flags[ji] = rtl.bit_or(out_flags[ji], er.enable);
    out_values[ji] = rtl.mux(er.enable, er.value, out_values[ji]);
  }
  for (std::size_t j = 0; j < img.n_outputs; ++j)
    img.netlist->mark_output(out_flags[j], "out_flag" + std::to_string(j));
  for (std::size_t j = 0; j < img.n_outputs; ++j)
    for (unsigned b = 0; b < width; ++b)
      img.netlist->mark_output(out_values[j][b],
                               "out_val" + std::to_string(j) + "[" +
                                   std::to_string(b) + "]");

  assert(img.netlist->validate().empty());
  return img;
}

void stage_hw_reaction(hw::GateSim& sim, const HwImage& img,
                       const cfsm::ReactionInputs& inputs) {
  for (std::size_t i = 0; i < img.n_inputs; ++i) {
    const cfsm::EventId e = img.local_inputs[i];
    const bool present = inputs.present(e);
    sim.set_input(i, present);
    sim.set_input_word(img.n_inputs + i * img.width,
                       present ? static_cast<std::uint32_t>(inputs.value(e))
                               : 0u,
                       img.width);
  }
}

std::vector<cfsm::EmittedEvent> read_hw_emissions(const hw::GateSim& sim,
                                                  const HwImage& img) {
  std::vector<cfsm::EmittedEvent> out;
  const auto& outs = sim.netlist().outputs();
  for (std::size_t j = 0; j < img.n_outputs; ++j) {
    if (!sim.net_value(outs[j].first)) continue;
    const auto raw = static_cast<std::uint32_t>(
        sim.read_word(img.n_outputs + j * img.width, img.width));
    // Sign-extend when the datapath is narrower than 32 bits.
    std::int32_t v = static_cast<std::int32_t>(raw);
    if (img.width < 32) {
      const std::uint32_t sign = 1u << (img.width - 1);
      if (raw & sign) v = static_cast<std::int32_t>(raw | ~((sign << 1) - 1));
    }
    out.push_back({img.local_outputs[j], v});
  }
  return out;
}

void sync_hw_vars(hw::GateSim& sim, const HwImage& img,
                  const cfsm::CfsmState& state) {
  for (std::size_t v = 0; v < state.vars.size(); ++v) {
    const Word& q = img.var_regs[v];
    const auto raw = static_cast<std::uint32_t>(state.vars[v]);
    for (std::size_t b = 0; b < q.size(); ++b)
      sim.force_net(q[b], ((raw >> b) & 1u) != 0);
  }
}

std::int32_t read_hw_var(const hw::GateSim& sim, const HwImage& img,
                         cfsm::VarId var) {
  const Word& q = img.var_regs[static_cast<std::size_t>(var)];
  std::uint32_t raw = 0;
  for (std::size_t b = 0; b < q.size(); ++b)
    if (sim.net_value(q[b])) raw |= 1u << b;
  return static_cast<std::int32_t>(raw);
}

}  // namespace socpower::hwsyn
