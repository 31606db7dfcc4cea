// Fast cache simulator attached to the simulation master.
//
// Following the paper (Section 3, and reference [19]): the ISS assumes 100 %
// cache hits; instead, the master feeds the (statically known) per-path
// instruction reference stream of every software transition to this
// simulator, which returns hit/miss statistics. Misses add a fixed refill
// penalty to the transition's cycle count and charge cache + main-memory
// access energy. Because the references are derived from the discrete-event
// model — not from the ISS — acceleration techniques that skip the ISS
// (energy caching, macro-modeling) leave the cache reference stream intact,
// which is exactly why the paper's caching technique is exact for the
// SPARClite (Section 5.2).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/units.hpp"

namespace socpower::cache {

struct CacheConfig {
  std::uint32_t size_bytes = 4096;
  std::uint32_t line_bytes = 16;
  std::uint32_t associativity = 1;  // 1 == direct-mapped
  unsigned miss_penalty_cycles = 8;

  /// Energy per cache array access (tag + data read) and per line refill
  /// from main memory.
  Joules hit_energy = 0.12e-9;
  Joules miss_energy = 2.4e-9;

  [[nodiscard]] std::uint32_t num_sets() const {
    return size_bytes / (line_bytes * associativity);
  }
};

struct AccessStats {
  std::uint64_t accesses = 0;
  std::uint64_t misses = 0;
  Cycles penalty_cycles = 0;
  Joules energy = 0.0;

  [[nodiscard]] double miss_rate() const {
    return accesses ? static_cast<double>(misses) /
                          static_cast<double>(accesses)
                    : 0.0;
  }
  AccessStats& operator+=(const AccessStats& o);
};

/// Set-associative cache with true-LRU replacement.
class CacheSim {
 public:
  explicit CacheSim(CacheConfig config = {});

  /// Simulate one reference; returns true on hit and updates totals.
  bool access(std::uint32_t address);
  /// Simulate a reference stream; returns the stats of this stream only.
  AccessStats access_stream(std::span<const std::uint32_t> addresses);

  [[nodiscard]] const AccessStats& totals() const { return totals_; }
  [[nodiscard]] const CacheConfig& config() const { return config_; }

  void flush();

 private:
  struct Line {
    std::uint32_t tag = 0;
    bool valid = false;
    std::uint64_t lru = 0;  // last-use stamp
  };

  /// last_base_ when no line was touched since construction or flush():
  /// no 32-bit address lies within line_bytes above it.
  static constexpr std::uint64_t kNoLine = std::uint64_t{1} << 63;

  CacheConfig config_;
  std::uint32_t num_sets_;
  std::vector<Line> lines_;  // sets * associativity, set-major
  // The line the previous access touched (an index, so copies stay valid)
  // and the byte address it starts at. A reference within it is a hit on
  // the set's most recently used way, priced without a set lookup.
  std::size_t last_line_ = 0;
  std::uint64_t last_base_ = kNoLine;
  std::uint64_t tick_ = 0;
  AccessStats totals_;
};

}  // namespace socpower::cache
