#include "core/report.hpp"

#include <algorithm>
#include <cstdio>

#include "telemetry/telemetry.hpp"
#include "util/table.hpp"

namespace socpower::core {

namespace {

sim::SimTime pick_window(sim::SimTime end_time, sim::SimTime requested) {
  if (requested > 0) return requested;
  const sim::SimTime w = end_time / 64;
  return w == 0 ? 1 : w;
}

}  // namespace

std::string render_report(const cfsm::Network& network,
                          const CoEstimator& estimator,
                          const RunResults& results,
                          const ReportOptions& options) {
  std::string out;
  out += "=== power co-estimation report ===\n";
  out += results.summary();
  out += "\n\n";

  // The analytical HW backend splits out the static (leakage) share of each
  // process's energy; the column only appears when it contributed.
  const bool show_static = !results.process_leakage.empty();
  std::vector<std::string> header = {"process", "impl", "energy"};
  if (show_static) header.push_back("static");
  header.push_back("share %");
  header.push_back("avg power");
  TextTable t(header);
  const ElectricalParams& ep = estimator.config().electrical;
  auto add_row = [&](std::string name, std::string impl, Joules e,
                     Joules static_e, bool has_static, bool show_watts) {
    char watts[32];
    std::snprintf(watts, sizeof watts, "%.3g mW",
                  ep.average_power_watts(e, results.end_time) * 1e3);
    std::vector<std::string> row = {std::move(name), std::move(impl),
                                    format_energy(e)};
    if (show_static)
      row.push_back(has_static ? format_energy(static_e) : "-");
    row.push_back(TextTable::fixed(
        results.total_energy > 0 ? 100.0 * e / results.total_energy : 0.0, 1));
    row.push_back(show_watts ? watts : "");
    t.add_row(std::move(row));
  };
  for (std::size_t i = 0; i < network.cfsm_count(); ++i) {
    const auto id = static_cast<cfsm::CfsmId>(i);
    const Joules leak = show_static && i < results.process_leakage.size()
                            ? results.process_leakage[i]
                            : 0.0;
    add_row(network.cfsm(id).name(), estimator.is_sw(id) ? "SW" : "HW",
            results.process_energy[i], leak, leak > 0.0, true);
  }
  add_row("(bus)", "-", results.bus_energy, 0.0, false, false);
  add_row("(icache)", "-", results.cache_energy, 0.0, false, false);
  out += t.render();

  if (telemetry::enabled()) {
    const telemetry::Snapshot snap = telemetry::snapshot();
    // Per-backend breakdown: each component estimator publishes its
    // counters under "estimator.<registry-name>.*", so the report can show
    // how many lower-level invocations each backend actually served
    // (invocations dodged by the acceleration layer simply never arrive).
    // This includes the reaction-cache rows (rcache.*).
    TextTable bt({"backend", "metric", "value"});
    bool any_backend_counters = false;
    for (const ComponentEstimator* b : estimator.backends()) {
      const std::string name(b->name());
      const std::string prefix = "estimator." + name + ".";
      for (const auto& c : snap.counters) {
        if (c.name.compare(0, prefix.size(), prefix) != 0) continue;
        bt.add_row({name, c.name.substr(prefix.size()),
                    std::to_string(c.value)});
        any_backend_counters = true;
      }
    }
    if (any_backend_counters) {
      out += "\n--- estimator backends ---\n";
      out += bt.render();
    }
    if (!snap.empty()) {
      out += "\n--- telemetry counters ---\n";
      out += snap.render_table();
    }
  }

  if (!options.include_waveforms) return out;
  const auto& trace = estimator.power_trace();
  const sim::SimTime window =
      pick_window(results.end_time, options.window_cycles);
  for (std::size_t c = 0; c < trace.component_count(); ++c) {
    const auto comp = static_cast<sim::ComponentId>(c);
    if (trace.total(comp) <= 0.0) continue;
    const auto wf = trace.waveform(comp, window);
    double peak = 0.0;
    for (const auto& w : wf) peak = std::max(peak, w.watts);
    if (peak <= 0.0) continue;
    char head[128];
    std::snprintf(head, sizeof head,
                  "\n%s power waveform (window %llu cycles, peak %.3g mW):\n",
                  trace.component_name(comp).c_str(),
                  static_cast<unsigned long long>(window), peak * 1e3);
    out += head;
    for (const auto& w : wf) {
      const auto bar = static_cast<std::size_t>(
          w.watts / peak * static_cast<double>(options.waveform_width));
      char line[64];
      std::snprintf(line, sizeof line, "  %10llu |",
                    static_cast<unsigned long long>(w.start));
      out += line;
      out.append(bar, '#');
      out += '\n';
    }
    const auto peaks = sim::PowerTrace::peak_windows(wf, options.peaks);
    out += "  peaks at cycles:";
    for (const auto p : peaks) {
      char buf[32];
      std::snprintf(buf, sizeof buf, " %llu",
                    static_cast<unsigned long long>(wf[p].start));
      out += buf;
    }
    out += '\n';
  }
  return out;
}

std::string waveforms_csv(const CoEstimator& estimator,
                          sim::SimTime window_cycles) {
  const auto& trace = estimator.power_trace();
  const sim::SimTime window =
      pick_window(trace.end_time(), window_cycles);
  std::string out = "start_cycle";
  std::vector<std::vector<sim::PowerWindow>> wfs;
  for (std::size_t c = 0; c < trace.component_count(); ++c) {
    out += "," + trace.component_name(static_cast<sim::ComponentId>(c));
    wfs.push_back(
        trace.waveform(static_cast<sim::ComponentId>(c), window));
  }
  out += '\n';
  std::size_t rows = 0;
  for (const auto& wf : wfs) rows = std::max(rows, wf.size());
  for (std::size_t r = 0; r < rows; ++r) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%llu",
                  static_cast<unsigned long long>(
                      static_cast<sim::SimTime>(r) * window));
    out += buf;
    for (const auto& wf : wfs) {
      std::snprintf(buf, sizeof buf, ",%.6g",
                    r < wf.size() ? wf[r].watts : 0.0);
      out += buf;
    }
    out += '\n';
  }
  return out;
}

}  // namespace socpower::core
