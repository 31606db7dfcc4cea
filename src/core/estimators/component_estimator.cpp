#include "core/estimators/component_estimator.hpp"

#include <cstdio>
#include <cstdlib>

namespace socpower::core {

void sync_overhead(unsigned spins) {
  volatile unsigned sink = 0;
  for (unsigned i = 0; i < spins; ++i) sink = sink + 1;
}

void verify_lowlevel_match(std::string_view backend, cfsm::CfsmId task,
                           std::span<const cfsm::EmittedEvent> lowlevel_em,
                           std::span<const cfsm::EmittedEvent> behavioral_em,
                           std::span<const std::int32_t> lowlevel_vars,
                           std::span<const std::int32_t> behavioral_vars) {
  char what[128] = {};
  if (lowlevel_em.size() != behavioral_em.size()) {
    std::snprintf(what, sizeof what, "%zu emissions, behavioral %zu",
                  lowlevel_em.size(), behavioral_em.size());
  } else if (lowlevel_vars.size() != behavioral_vars.size()) {
    std::snprintf(what, sizeof what, "%zu variables, behavioral %zu",
                  lowlevel_vars.size(), behavioral_vars.size());
  }
  for (std::size_t i = 0; !what[0] && i < lowlevel_em.size(); ++i) {
    const cfsm::EmittedEvent& l = lowlevel_em[i];
    const cfsm::EmittedEvent& b = behavioral_em[i];
    if (l.event != b.event || l.value != b.value)
      std::snprintf(what, sizeof what,
                    "emission %zu is event %d = %d, behavioral event %d = %d",
                    i, l.event, l.value, b.event, b.value);
  }
  for (std::size_t v = 0; !what[0] && v < lowlevel_vars.size(); ++v) {
    if (lowlevel_vars[v] != behavioral_vars[v])
      std::snprintf(what, sizeof what, "variable %zu is %d, behavioral %d", v,
                    lowlevel_vars[v], behavioral_vars[v]);
  }
  if (!what[0]) return;
  std::fprintf(stderr, "verify_lowlevel: %.*s, process %d: %s\n",
               static_cast<int>(backend.size()), backend.data(),
               static_cast<int>(task), what);
  std::abort();
}

}  // namespace socpower::core
