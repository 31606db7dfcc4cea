#include "core/macromodel.hpp"

#include <cassert>
#include <cstdio>
#include <sstream>

namespace socpower::core {

using swsyn::MacroOp;

MacroModelLibrary MacroModelLibrary::characterize(
    const iss::InstructionPowerModel& model) {
  iss::Iss scratch(model);
  constexpr std::uint32_t kCodeBase = 0x100;

  auto measure = [&scratch](const iss::Program& prog) {
    scratch.load_program(prog, kCodeBase);
    scratch.reset_cpu();
    scratch.set_pc(kCodeBase);
    const iss::RunResult r = scratch.run();
    assert(r.halted && "characterization template did not halt");
    return r;
  };

  const iss::Program empty = swsyn::empty_template();
  const iss::RunResult base = measure(empty);

  MacroModelLibrary lib;
  for (std::size_t i = 0; i < swsyn::kNumMacroOps; ++i) {
    const auto op = static_cast<MacroOp>(i);
    const iss::Program tpl = swsyn::characterization_template(op);
    const iss::RunResult r = measure(tpl);
    MacroCost c;
    c.cycles = static_cast<double>(r.cycles) - static_cast<double>(base.cycles);
    c.energy = r.energy - base.energy;
    c.size_bytes = static_cast<std::uint32_t>(
        (tpl.size() - empty.size()) * iss::kInstrBytes);
    if (c.cycles < 0) c.cycles = 0;
    if (c.energy < 0) c.energy = 0;
    lib.costs_[i] = c;
  }
  return lib;
}

const MacroCost& MacroModelLibrary::cost(MacroOp op) const {
  return costs_[static_cast<std::size_t>(op)];
}

void MacroModelLibrary::set_cost(MacroOp op, MacroCost cost) {
  costs_[static_cast<std::size_t>(op)] = cost;
}

PathEstimate MacroModelLibrary::estimate(
    std::span<const MacroOp> stream) const {
  PathEstimate e;
  for (const MacroOp op : stream) {
    const MacroCost& c = costs_[static_cast<std::size_t>(op)];
    e.cycles += c.cycles;
    e.energy += c.energy;
  }
  return e;
}

std::string MacroModelLibrary::to_parameter_file() const {
  std::string out;
  out += ".unit_time cycle\n.unit_size byte\n.unit_energy nJ\n";
  char line[96];
  for (std::size_t i = 0; i < swsyn::kNumMacroOps; ++i) {
    std::snprintf(line, sizeof line, ".time %s %.6g\n",
                  swsyn::macro_op_name(static_cast<MacroOp>(i)),
                  costs_[i].cycles);
    out += line;
  }
  for (std::size_t i = 0; i < swsyn::kNumMacroOps; ++i) {
    std::snprintf(line, sizeof line, ".size %s %u\n",
                  swsyn::macro_op_name(static_cast<MacroOp>(i)),
                  costs_[i].size_bytes);
    out += line;
  }
  for (std::size_t i = 0; i < swsyn::kNumMacroOps; ++i) {
    std::snprintf(line, sizeof line, ".energy %s %.6g\n",
                  swsyn::macro_op_name(static_cast<MacroOp>(i)),
                  to_nanojoules(costs_[i].energy));
    out += line;
  }
  return out;
}

std::optional<MacroModelLibrary> MacroModelLibrary::from_parameter_file(
    const std::string& text, std::string* error) {
  MacroModelLibrary lib;
  std::istringstream in(text);
  std::string directive;
  std::size_t line_no = 0;
  auto fail = [&](const std::string& msg) {
    if (error) *error = "line " + std::to_string(line_no) + ": " + msg;
    return std::nullopt;
  };
  std::string line;
  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream ls(line);
    if (!(ls >> directive)) continue;  // blank line
    if (directive == ".unit_time" || directive == ".unit_size" ||
        directive == ".unit_energy") {
      std::string unit;
      if (!(ls >> unit)) return fail("missing unit");
      if (directive == ".unit_time" && unit != "cycle")
        return fail("unsupported time unit " + unit);
      if (directive == ".unit_size" && unit != "byte")
        return fail("unsupported size unit " + unit);
      if (directive == ".unit_energy" && unit != "nJ")
        return fail("unsupported energy unit " + unit);
      continue;
    }
    if (directive != ".time" && directive != ".size" &&
        directive != ".energy")
      return fail("unknown directive " + directive);
    std::string name;
    double value = 0;
    if (!(ls >> name >> value)) return fail("malformed entry");
    const MacroOp op = swsyn::macro_op_from_name(name.c_str());
    if (op == MacroOp::kMacroOpCount)
      return fail("unknown macro-op " + name);
    MacroCost& c = lib.costs_[static_cast<std::size_t>(op)];
    if (directive == ".time")
      c.cycles = value;
    else if (directive == ".size")
      c.size_bytes = static_cast<std::uint32_t>(value);
    else
      c.energy = from_nanojoules(value);
  }
  if (error) error->clear();
  return lib;
}

}  // namespace socpower::core
