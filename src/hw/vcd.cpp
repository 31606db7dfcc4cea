#include "hw/vcd.hpp"

#include <cassert>

namespace socpower::hw {

VcdRecorder::VcdRecorder(const GateSim* sim) : sim_(sim) {
  const Netlist& nl = sim_->netlist();
  for (const auto& [net, name] : nl.outputs()) signals_.push_back({net, name});
  std::size_t ff = 0;
  for (const Dff& d : nl.dffs())
    signals_.push_back({d.q, "ff" + std::to_string(ff++)});
}

void VcdRecorder::watch(NetId net, std::string name) {
  assert(times_.empty() && "watch() must precede the first sample()");
  signals_.push_back({net, std::move(name)});
}

void VcdRecorder::sample(std::uint64_t t) {
  assert(times_.empty() || t >= times_.back());
  times_.push_back(t);
  std::vector<std::uint8_t> row(signals_.size());
  for (std::size_t i = 0; i < signals_.size(); ++i)
    row[i] = sim_->net_value(signals_[i].net) ? 1 : 0;
  values_.push_back(std::move(row));
}

std::string VcdRecorder::id_for(std::size_t i) {
  // Base-94 over the printable identifier alphabet.
  std::string id;
  do {
    id += static_cast<char>(33 + i % 94);
    i /= 94;
  } while (i > 0);
  return id;
}

std::string VcdRecorder::render(const std::string& module_name,
                                const std::string& timescale) const {
  std::string out;
  out += "$date socpower $end\n";
  out += "$version socpower gate-level trace $end\n";
  out += "$timescale " + timescale + " $end\n";
  out += "$scope module " + module_name + " $end\n";
  for (std::size_t i = 0; i < signals_.size(); ++i) {
    // Sanitize: VCD identifiers-in-names with spaces confuse viewers.
    std::string name = signals_[i].name;
    for (char& c : name)
      if (c == ' ') c = '_';
    out += "$var wire 1 " + id_for(i) + " " + name + " $end\n";
  }
  out += "$upscope $end\n$enddefinitions $end\n";

  std::vector<std::uint8_t> last(signals_.size(), 2);  // 2 = undefined
  for (std::size_t s = 0; s < times_.size(); ++s) {
    std::string changes;
    for (std::size_t i = 0; i < signals_.size(); ++i) {
      if (values_[s][i] != last[i]) {
        changes += values_[s][i] ? '1' : '0';
        changes += id_for(i);
        changes += '\n';
        last[i] = values_[s][i];
      }
    }
    if (!changes.empty() || s == 0) {
      out += '#';
      out += std::to_string(times_[s]);
      out += '\n';
      out += changes;
    }
  }
  return out;
}

}  // namespace socpower::hw
