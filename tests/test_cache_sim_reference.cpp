// CacheSim against a reference per-access model: the plain set-associative
// true-LRU cache with no fast path, which computes the set and tag of every
// reference. CacheSim answers a reference to the line it touched last
// without a set lookup; over random streams mixing sequential runs, jumps,
// re-references and flush(), every access must report the same hit or miss
// and the totals must be bitwise equal.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <vector>

#include "cache/cache_sim.hpp"
#include "util/rng.hpp"

namespace socpower::cache {
namespace {

class ReferenceCache {
 public:
  explicit ReferenceCache(CacheConfig c)
      : c_(c), lines_(std::size_t{c.num_sets()} * c.associativity) {}

  bool access(std::uint32_t address) {
    const std::uint32_t line_addr = address / c_.line_bytes;
    const std::uint32_t set = line_addr % c_.num_sets();
    const std::uint32_t tag = line_addr / c_.num_sets();
    Line* base = &lines_[std::size_t{set} * c_.associativity];
    ++tick_;
    ++totals_.accesses;
    totals_.energy += c_.hit_energy;
    for (std::uint32_t w = 0; w < c_.associativity; ++w) {
      if (base[w].valid && base[w].tag == tag) {
        base[w].lru = tick_;
        return true;
      }
    }
    Line* victim = base;
    for (std::uint32_t w = 0; w < c_.associativity; ++w) {
      if (!base[w].valid) {
        victim = &base[w];
        break;
      }
      if (base[w].lru < victim->lru) victim = &base[w];
    }
    *victim = {tag, true, tick_};
    ++totals_.misses;
    totals_.penalty_cycles += c_.miss_penalty_cycles;
    totals_.energy += c_.miss_energy;
    return false;
  }

  void flush() { lines_.assign(lines_.size(), Line{}); }
  [[nodiscard]] const AccessStats& totals() const { return totals_; }

 private:
  struct Line {
    std::uint32_t tag = 0;
    bool valid = false;
    std::uint64_t lru = 0;
  };
  CacheConfig c_;
  std::vector<Line> lines_;
  std::uint64_t tick_ = 0;
  AccessStats totals_;
};

struct Geometry {
  std::uint32_t size_bytes;
  std::uint32_t line_bytes;
  std::uint32_t associativity;
};

void PrintTo(const Geometry& g, std::ostream* os) {
  *os << g.size_bytes << " B, " << g.line_bytes << " B lines, "
      << g.associativity << "-way";
}

class CacheSimReference : public ::testing::TestWithParam<Geometry> {};

TEST_P(CacheSimReference, EveryAccessAndTotalMatch) {
  const Geometry g = GetParam();
  CacheConfig cfg;
  cfg.size_bytes = g.size_bytes;
  cfg.line_bytes = g.line_bytes;
  cfg.associativity = g.associativity;
  cfg.hit_energy = 0.13e-9;
  cfg.miss_energy = 2.7e-9;
  CacheSim sim(cfg);
  ReferenceCache ref(cfg);
  const std::uint32_t span = 4 * cfg.size_bytes;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    std::uint32_t pc = 0;
    for (int i = 0; i < 20000; ++i) {
      const std::uint64_t r = rng.below(100);
      if (r < 2) {
        sim.flush();
        ref.flush();
        continue;
      }
      if (r < 12) {
        pc = static_cast<std::uint32_t>(rng.below(span));  // jump
      } else if (r < 17) {
        pc -= std::min<std::uint32_t>(pc, 4 * static_cast<std::uint32_t>(
                                                  rng.below(8)));  // back
      } else if (r < 20) {
        pc = 0xfffffff0u + static_cast<std::uint32_t>(rng.below(16));
      }
      // Otherwise: re-reference or run on sequentially, 4-byte words.
      const bool hit = sim.access(pc);
      ASSERT_EQ(ref.access(pc), hit) << "seed " << seed << " access " << i;
      if (rng.chance(0.7)) pc += 4;
    }
  }
  EXPECT_EQ(sim.totals().accesses, ref.totals().accesses);
  EXPECT_EQ(sim.totals().misses, ref.totals().misses);
  EXPECT_EQ(sim.totals().penalty_cycles, ref.totals().penalty_cycles);
  EXPECT_EQ(sim.totals().energy, ref.totals().energy);  // bitwise
  EXPECT_GT(sim.totals().misses, 0u);
  EXPECT_LT(sim.totals().misses, sim.totals().accesses);
}

TEST_P(CacheSimReference, StreamStatsMatchReference) {
  const Geometry g = GetParam();
  CacheConfig cfg;
  cfg.size_bytes = g.size_bytes;
  cfg.line_bytes = g.line_bytes;
  cfg.associativity = g.associativity;
  CacheSim sim(cfg);
  ReferenceCache ref(cfg);
  Rng rng(7);
  for (int s = 0; s < 200; ++s) {
    std::vector<std::uint32_t> stream;
    auto pc = static_cast<std::uint32_t>(rng.below(2 * cfg.size_bytes));
    for (std::uint64_t n = rng.below(64); n > 0; --n, pc += 4)
      stream.push_back(pc);
    const AccessStats before = ref.totals();
    for (const std::uint32_t a : stream) ref.access(a);
    const AccessStats got = sim.access_stream(stream);
    EXPECT_EQ(got.accesses, ref.totals().accesses - before.accesses);
    EXPECT_EQ(got.misses, ref.totals().misses - before.misses);
    EXPECT_EQ(got.energy, ref.totals().energy - before.energy);  // bitwise
    if (s % 50 == 49) {
      sim.flush();
      ref.flush();
    }
  }
  EXPECT_EQ(sim.totals().energy, ref.totals().energy);
}

// Associativity 1, 2 and 4, plus non-power-of-two line sizes (12, 24 B)
// and set counts (3, 5, 6, 10 sets).
INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheSimReference,
    ::testing::Values(Geometry{4096, 16, 1}, Geometry{4096, 16, 2},
                      Geometry{4096, 16, 4}, Geometry{240, 12, 2},
                      Geometry{96, 16, 1}, Geometry{480, 24, 4},
                      Geometry{144, 24, 2}, Geometry{256, 16, 4}));

}  // namespace
}  // namespace socpower::cache
