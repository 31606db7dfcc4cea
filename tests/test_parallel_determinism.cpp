// Parallel co-estimation must be bit-identical to serial: the threaded
// explore() and the threaded hardware batch flush reduce their results in a
// deterministic order, so every reported energy is exactly the energy the
// serial path reports, for any thread count and across workload seeds.
#include <gtest/gtest.h>

#include "core/coestimator.hpp"
#include "core/explorer.hpp"
#include "systems/tcpip.hpp"

namespace socpower::core {
namespace {

const std::uint64_t kSeeds[] = {1, 7, 1234};

RunResults run_tcpip(std::uint64_t seed, unsigned hw_flush_threads) {
  systems::TcpIpParams p;
  p.num_packets = 4;
  p.packet_bytes = 64;
  p.ip_check_in_hw = true;  // two ASICs -> two independent flush batches
  p.seed = seed;
  systems::TcpIpSystem sys(p);
  CoEstimatorConfig cfg;
  cfg.hw_flush_threads = hw_flush_threads;
  CoEstimator est(&sys.network(), cfg);
  sys.configure(est);
  est.prepare();
  return est.run(sys.stimulus());
}

TEST(ParallelDeterminism, FlushHwBatchesMatchesSerialExactly) {
  for (const std::uint64_t seed : kSeeds) {
    const RunResults serial = run_tcpip(seed, 1);
    ASSERT_GT(serial.hw_energy, 0.0);
    ASSERT_GT(serial.gate_sim_cycles, 0u);
    for (const unsigned threads : {2u, 4u, 0u}) {
      const RunResults par = run_tcpip(seed, threads);
      EXPECT_EQ(par.total_energy, serial.total_energy) << "seed " << seed;
      EXPECT_EQ(par.hw_energy, serial.hw_energy);
      EXPECT_EQ(par.cpu_energy, serial.cpu_energy);
      EXPECT_EQ(par.bus_energy, serial.bus_energy);
      EXPECT_EQ(par.process_energy, serial.process_energy);
      EXPECT_EQ(par.gate_sim_cycles, serial.gate_sim_cycles);
      EXPECT_EQ(par.end_time, serial.end_time);
    }
  }
}

std::vector<ExplorationPoint> make_points(std::uint64_t seed,
                                          unsigned hw_flush_threads) {
  std::vector<ExplorationPoint> pts;
  for (const unsigned dma : {4u, 16u, 64u}) {
    auto make_run = [=](Acceleration accel) {
      return [=]() {
        systems::TcpIpParams p;
        p.num_packets = 3;
        p.packet_bytes = 32;
        p.dma_block_size = dma;
        p.ip_check_in_hw = true;
        p.seed = seed;
        systems::TcpIpSystem sys(p);
        CoEstimatorConfig cfg;
        cfg.accel = accel;
        cfg.hw_flush_threads = hw_flush_threads;
        CoEstimator est(&sys.network(), cfg);
        sys.configure(est);
        est.prepare();
        return est.run(sys.stimulus());
      };
    };
    pts.push_back({"dma=" + std::to_string(dma),
                   make_run(Acceleration::kMacroModel),
                   make_run(Acceleration::kNone),
                   /*run_analytical=*/nullptr});
  }
  return pts;
}

TEST(ParallelDeterminism, ExploreMatchesSerialExactly) {
  for (const std::uint64_t seed : kSeeds) {
    const auto serial = explore(make_points(seed, 1), /*verify_top=*/2);
    for (const unsigned threads : {2u, 4u}) {
      // hw_flush_threads > 1 inside a pool worker exercises the nested
      // (inline) path of the pool as well.
      const auto par = explore(make_points(seed, threads), 2,
                               ExploreOptions{.threads = threads});
      ASSERT_EQ(par.ranked.size(), serial.ranked.size());
      for (std::size_t i = 0; i < serial.ranked.size(); ++i) {
        EXPECT_EQ(par.ranked[i].label, serial.ranked[i].label);
        EXPECT_EQ(par.ranked[i].coarse_energy, serial.ranked[i].coarse_energy)
            << "seed " << seed << " entry " << i;
        EXPECT_EQ(par.ranked[i].exact_energy, serial.ranked[i].exact_energy);
        EXPECT_EQ(par.ranked[i].coarse_rank, serial.ranked[i].coarse_rank);
      }
      EXPECT_EQ(par.winner_confirmed, serial.winner_confirmed);
      EXPECT_EQ(par.verification_correlation, serial.verification_correlation);
    }
  }
}

}  // namespace
}  // namespace socpower::core
