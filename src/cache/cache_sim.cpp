#include "cache/cache_sim.hpp"

#include <cassert>

#include "telemetry/registry.hpp"

namespace socpower::cache {

AccessStats& AccessStats::operator+=(const AccessStats& o) {
  accesses += o.accesses;
  misses += o.misses;
  penalty_cycles += o.penalty_cycles;
  energy += o.energy;
  return *this;
}

CacheSim::CacheSim(CacheConfig config)
    : config_(config), num_sets_(config.num_sets()) {
  assert(config_.line_bytes > 0 && config_.associativity > 0);
  assert(config_.size_bytes % (config_.line_bytes * config_.associativity) ==
         0);
  lines_.assign(std::size_t{num_sets_} * config_.associativity, Line{});
}

bool CacheSim::access(std::uint32_t address) {
  ++tick_;
  ++totals_.accesses;
  totals_.energy += config_.hit_energy;
  if (address - last_base_ < config_.line_bytes) {
    lines_[last_line_].lru = tick_;
    return true;
  }
  const std::uint32_t line_addr = address / config_.line_bytes;
  const std::uint32_t set = line_addr % num_sets_;
  const std::uint32_t tag = line_addr / num_sets_;
  const std::size_t base = std::size_t{set} * config_.associativity;
  last_base_ = std::uint64_t{line_addr} * config_.line_bytes;

  for (std::size_t w = base; w < base + config_.associativity; ++w) {
    Line& l = lines_[w];
    if (l.valid && l.tag == tag) {
      l.lru = tick_;
      last_line_ = w;
      return true;
    }
  }
  // Miss: refill into the first invalid way, else the least-recently-used.
  std::size_t victim = base;
  for (std::size_t w = base; w < base + config_.associativity; ++w) {
    if (!lines_[w].valid) {
      victim = w;
      break;
    }
    if (lines_[w].lru < lines_[victim].lru) victim = w;
  }
  Line& v = lines_[victim];
  v.valid = true;
  v.tag = tag;
  v.lru = tick_;
  last_line_ = victim;
  ++totals_.misses;
  totals_.penalty_cycles += config_.miss_penalty_cycles;
  totals_.energy += config_.miss_energy;
  return false;
}

AccessStats CacheSim::access_stream(
    std::span<const std::uint32_t> addresses) {
  const AccessStats before = totals_;
  for (std::size_t i = 0; i < addresses.size();) {
    // A run of references inside the last line touched is a run of MRU
    // hits: price it with the counters in registers, adding the energy in
    // the same order access() would.
    std::size_t end = i;
    Joules energy = totals_.energy;
    while (end < addresses.size() &&
           addresses[end] - last_base_ < config_.line_bytes) {
      energy += config_.hit_energy;
      ++end;
    }
    if (end == i) {
      access(addresses[i++]);
      continue;
    }
    tick_ += end - i;
    totals_.accesses += end - i;
    totals_.energy = energy;
    lines_[last_line_].lru = tick_;
    i = end;
  }
  AccessStats delta;
  delta.accesses = totals_.accesses - before.accesses;
  delta.misses = totals_.misses - before.misses;
  delta.penalty_cycles = totals_.penalty_cycles - before.penalty_cycles;
  delta.energy = totals_.energy - before.energy;
  static telemetry::Counter& accesses =
      telemetry::registry().counter("icache.accesses");
  static telemetry::Counter& misses =
      telemetry::registry().counter("icache.misses");
  accesses.add(delta.accesses);
  misses.add(delta.misses);
  return delta;
}

void CacheSim::flush() {
  for (auto& l : lines_) l = Line{};
  last_base_ = kNoLine;
}

}  // namespace socpower::cache
