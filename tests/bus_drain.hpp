// Submit-and-drain helpers for tests that price whole transfers on the
// grant-level bus::BusScheduler, the bus the co-estimation master runs.
// Tests-only header.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "bus/bus_model.hpp"

namespace socpower::bus {

/// Submits every request at cycle `now`, advances the scheduler until it is
/// idle and returns the results in submission order.
inline std::vector<BusResult> transfer_all(
    BusScheduler& s, std::uint64_t now, const std::vector<BusRequest>& reqs) {
  std::vector<BusScheduler::JobId> ids;
  for (const BusRequest& r : reqs) ids.push_back(s.submit(now, r));
  std::vector<BusResult> results(reqs.size());
  while (s.has_work())
    for (const auto& c : s.advance(s.next_boundary())) {
      const auto it = std::find(ids.begin(), ids.end(), c.id);
      results[static_cast<std::size_t>(it - ids.begin())] = c.result;
    }
  return results;
}

inline BusResult transfer_one(BusScheduler& s, std::uint64_t now,
                              const BusRequest& request) {
  return transfer_all(s, now, {request})[0];
}

}  // namespace socpower::bus
