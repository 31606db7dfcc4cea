// Combinatorial configuration smoke matrix: every acceleration mode ×
// hardware estimator kind × ip_check mapping must run the TCP/IP system to
// functional completion with self-consistent accounting. Plus negative
// coverage for the emission-ring capacity guard.
#include <gtest/gtest.h>

#include <cstdint>

#include "systems/tcpip.hpp"

namespace socpower::core {
namespace {

struct MatrixCase {
  Acceleration accel;
  bool rtl_checksum;
  bool ip_check_hw;
  // gtest names each case after the raw bytes of its parameter; explicit zero
  // bytes in place of padding keep those names the same from run to run.
  std::uint8_t zero[2] = {};
};

class ConfigMatrix : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(ConfigMatrix, TcpIpRunsGreen) {
  const MatrixCase& m = GetParam();
  systems::TcpIpParams p;
  p.num_packets = 4;
  p.packet_bytes = 48;
  p.checksum_rtl_estimator = m.rtl_checksum;
  p.ip_check_in_hw = m.ip_check_hw;
  systems::TcpIpSystem sys(p);
  CoEstimatorConfig cfg;
  cfg.accel = m.accel;
  if (m.accel == Acceleration::kCaching) cfg.accelerate_hw = m.rtl_checksum;
  CoEstimator est(&sys.network(), cfg);
  sys.configure(est);
  est.prepare();
  const auto r = est.run(sys.stimulus());
  EXPECT_FALSE(r.truncated);
  EXPECT_EQ(sys.packets_ok(est), 4);
  EXPECT_EQ(sys.packets_bad(est), 0);
  EXPECT_GT(r.total_energy, 0.0);
  EXPECT_NEAR(r.total_energy,
              r.cpu_energy + r.hw_energy + r.bus_energy + r.cache_energy,
              r.total_energy * 1e-9);
  // Repeatability in every configuration.
  const auto r2 = est.run(sys.stimulus());
  EXPECT_DOUBLE_EQ(r2.total_energy, r.total_energy);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombinations, ConfigMatrix,
    ::testing::Values(
        MatrixCase{Acceleration::kNone, false, false},
        MatrixCase{Acceleration::kNone, false, true},
        MatrixCase{Acceleration::kNone, true, false},
        MatrixCase{Acceleration::kNone, true, true},
        MatrixCase{Acceleration::kCaching, false, false},
        MatrixCase{Acceleration::kCaching, false, true},
        MatrixCase{Acceleration::kCaching, true, false},
        MatrixCase{Acceleration::kCaching, true, true},
        MatrixCase{Acceleration::kMacroModel, false, false},
        MatrixCase{Acceleration::kMacroModel, false, true},
        MatrixCase{Acceleration::kMacroModel, true, false},
        MatrixCase{Acceleration::kMacroModel, true, true},
        MatrixCase{Acceleration::kSampling, false, false},
        MatrixCase{Acceleration::kSampling, false, true},
        MatrixCase{Acceleration::kSampling, true, false},
        MatrixCase{Acceleration::kSampling, true, true}),
    [](const auto& info) {
      const MatrixCase& m = info.param;
      return std::string(acceleration_name(m.accel)) +
             (m.rtl_checksum ? "_rtl" : "_gate") +
             (m.ip_check_hw ? "_asic1" : "_sw");
    });

TEST(EmissionRing, SizedForTheWorstCasePath) {
  // 40 emissions on one path: the ring is sized at compile time, so the
  // run completes and every emission arrives (this used to overflow a
  // fixed 16-slot ring into the adjacent input-flag area).
  cfsm::Network net;
  const auto trig = net.declare_event("T");
  const auto out = net.declare_event("OUT");
  cfsm::Cfsm& c = net.add_cfsm("spam");
  c.add_input(trig);
  c.add_output(out);
  auto& g = c.graph();
  cfsm::NodeId next = g.add_end();
  for (int i = 0; i < 40; ++i)
    next = g.add_emit(out, c.arena().constant(i), next);
  g.set_root(next);
  CoEstimatorConfig cfg;
  cfg.verify_lowlevel = true;  // compares ISS emissions with behavioral ones
  CoEstimator est(&net, cfg);
  est.map_sw(0, 0);
  est.prepare();
  EXPECT_GE(est.sw_image(0)->max_emits, 40u);
  int delivered = 0;
  est.set_environment_hook(
      [&](const sim::EventOccurrence& o, sim::EventQueue&) {
        if (o.event == out) ++delivered;
      });
  sim::Stimulus stim;
  stim.add(1, trig);
  const auto r = est.run(stim);
  EXPECT_FALSE(r.truncated);
  EXPECT_EQ(delivered, 40);
}

}  // namespace
}  // namespace socpower::core
