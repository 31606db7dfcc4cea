// Benchmark-system tests: functional correctness of the TCP/IP subsystem
// (real Internet checksums over randomized payloads), the producer/consumer
// timing chain, and the dashboard scenario behaviors.
#include <gtest/gtest.h>

#include "core/coestimator.hpp"
#include "systems/dashboard.hpp"
#include "systems/prodcons.hpp"
#include "systems/tcpip.hpp"

namespace socpower::systems {
namespace {

TEST(TcpIp, ExpectedChecksumMatchesReferenceImplementation) {
  TcpIpSystem sys({.num_packets = 2, .packet_bytes = 5, .seed = 42});
  // Independent reference: RFC1071-style 16-bit one's-complement sum.
  for (std::size_t p = 0; p < sys.packets().size(); ++p) {
    const auto& pkt = sys.packets()[p];
    std::uint32_t acc = 0;
    for (std::size_t i = 0; i < pkt.size(); i += 2) {
      std::uint32_t w = pkt[i];
      if (i + 1 < pkt.size()) w |= static_cast<std::uint32_t>(pkt[i + 1]) << 8;
      acc += w;
      while (acc > 0xFFFF) acc = (acc & 0xFFFF) + (acc >> 16);
    }
    EXPECT_EQ(sys.expected_checksum(p), acc);
  }
}

class TcpIpChecksumSweep
    : public ::testing::TestWithParam<std::tuple<int, unsigned>> {};

TEST_P(TcpIpChecksumSweep, AllPacketsVerifyAcrossSizesAndDma) {
  const auto [bytes, dma] = GetParam();
  TcpIpParams p;
  p.num_packets = 5;
  p.packet_bytes = bytes;
  p.dma_block_size = dma;
  p.seed = static_cast<std::uint64_t>(bytes) * 131 + dma;
  TcpIpSystem sys(p);
  core::CoEstimatorConfig cfg;
  cfg.verify_lowlevel = true;
  core::CoEstimator est(&sys.network(), cfg);
  sys.configure(est);
  est.prepare();
  const auto r = est.run(sys.stimulus());
  EXPECT_FALSE(r.truncated);
  EXPECT_EQ(sys.packets_ok(est), 5) << "bytes=" << bytes << " dma=" << dma;
  EXPECT_EQ(sys.packets_bad(est), 0);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndDma, TcpIpChecksumSweep,
    ::testing::Combine(::testing::Values(3, 8, 17, 32, 64, 127),
                       ::testing::Values(2u, 4u, 16u, 64u, 128u)),
    [](const auto& info) {
      return std::string("b")
          .append(std::to_string(std::get<0>(info.param)))
          .append("_dma")
          .append(std::to_string(std::get<1>(info.param)));
    });

TEST(TcpIp, BackToBackPacketsSurviveQueueing) {
  // Arrival gap far smaller than the processing time: every packet must
  // still be checked exactly once (exercises the queue depth logic and the
  // create_pack pending counter).
  TcpIpParams p;
  p.num_packets = 8;
  p.packet_bytes = 48;
  p.packet_gap = 3;
  TcpIpSystem sys(p);
  core::CoEstimator est(&sys.network(), {});
  sys.configure(est);
  est.prepare();
  est.run(sys.stimulus());
  EXPECT_EQ(sys.packets_ok(est), 8);
  EXPECT_EQ(sys.packets_bad(est), 0);
}

TEST(TcpIp, BusSeesWritesAndReads) {
  TcpIpSystem sys({.num_packets = 3, .packet_bytes = 32});
  core::CoEstimator est(&sys.network(), {});
  sys.configure(est);
  est.prepare();
  const auto r = est.run(sys.stimulus());
  // Each packet is written once by create_pack and read once by checksum,
  // plus one small header fetch per packet by ip_check.
  EXPECT_EQ(r.bus_totals.bytes, 3u * (32 + 32 + 4));
  EXPECT_GE(r.bus_totals.grants, 3u * (2 + 2 + 1));  // dma=16: 2 each way
}

TEST(TcpIp, DmaConfigChangesGrantCountNotFunction) {
  std::uint64_t grants_small = 0, grants_large = 0;
  for (const unsigned dma : {4u, 64u}) {
    TcpIpSystem sys({.num_packets = 2, .packet_bytes = 64,
                     .dma_block_size = dma, .seed = 9});
    core::CoEstimator est(&sys.network(), {});
    sys.configure(est);
    est.prepare();
    const auto r = est.run(sys.stimulus());
    EXPECT_EQ(sys.packets_ok(est), 2);
    (dma == 4u ? grants_small : grants_large) = r.bus_totals.grants;
  }
  // The checksum reads split into ceil(64/4)=16 vs 1 grants per packet; the
  // CPU's incremental 4-byte writes are DMA-independent above 4 bytes.
  EXPECT_GT(grants_small, grants_large + 2 * 10);
}

TEST(ProdCons, ConsumerWorkScalesWithProducerLatency) {
  // Slower producer (more bytes) => more timer ticks between END_COMPs =>
  // more consumer iterations. Count BYTE_DONE occurrences via the
  // environment hook.
  auto count_byte_done = [](int bytes) {
    ProdConsSystem sys({.num_packets = 6, .bytes_per_packet = bytes,
                        .tick_period = 32, .start_gap = 2});
    core::CoEstimator est(&sys.network(), {});
    sys.configure(est);
    est.prepare();
    std::uint64_t count = 0;
    est.set_environment_hook(
        [&](const sim::EventOccurrence& o, sim::EventQueue&) {
          if (o.event == sys.byte_done_event()) ++count;
        });
    est.run(sys.stimulus(40000));
    return count;
  };
  const auto fast = count_byte_done(8);
  const auto slow = count_byte_done(48);
  EXPECT_GT(slow, fast);
}

TEST(ProdCons, AllPacketsProduceEndComp) {
  ProdConsSystem sys({.num_packets = 5, .bytes_per_packet = 10,
                      .tick_period = 64, .start_gap = 2});
  core::CoEstimator est(&sys.network(), {});
  sys.configure(est);
  est.prepare();
  std::uint64_t end_comps = 0;
  const auto end_comp = sys.network().event_id("END_COMP");
  est.set_environment_hook(
      [&](const sim::EventOccurrence& o, sim::EventQueue&) {
        if (o.event == end_comp) ++end_comps;
      });
  const auto r = est.run(sys.stimulus(30000));
  EXPECT_FALSE(r.truncated);
  EXPECT_EQ(end_comps, 5u);
}

TEST(ProdCons, ResetClearsTheWholePipeline) {
  ProdConsSystem sys({.num_packets = 3, .bytes_per_packet = 8});
  core::CoEstimator est(&sys.network(), {});
  sys.configure(est);
  est.prepare();
  sim::Stimulus stim = sys.stimulus(5000);
  stim.add(2500, sys.network().event_id("RESET"));
  const auto r = est.run(stim);
  EXPECT_FALSE(r.truncated);  // reset must not wedge the system
  // Producer variables back to init if reset arrived after the work drained.
  const auto& st = est.process_state(sys.producer());
  EXPECT_EQ(st.vars[0], 0);  // PKTS
}

TEST(Dashboard, BeltAlarmFiresAfterFiveSecondsUnbelted) {
  DashboardSystem sys({.frames = 20});
  core::CoEstimator est(&sys.network(), {});
  sys.configure(est);
  est.prepare();
  std::vector<sim::SimTime> alarm_on, alarm_off;
  est.set_environment_hook(
      [&](const sim::EventOccurrence& o, sim::EventQueue&) {
        if (o.event == sys.alarm_on_event()) alarm_on.push_back(o.time);
      });
  est.run(sys.stimulus());
  // Key on at t=1, belt fastened in frame 8, 1s tick each frame -> the
  // alarm fires once (at tick 5) and is cleared by the belt.
  ASSERT_EQ(alarm_on.size(), 1u);
}

TEST(Dashboard, FuelWarningFiresOnceWhenLevelDrains) {
  DashboardSystem sys({.frames = 40});
  core::CoEstimator est(&sys.network(), {});
  sys.configure(est);
  est.prepare();
  int warnings = 0;
  est.set_environment_hook(
      [&](const sim::EventOccurrence& o, sim::EventQueue&) {
        if (o.event == sys.fuel_low_event()) ++warnings;
      });
  est.run(sys.stimulus());
  EXPECT_EQ(warnings, 1);  // warn-once latch
}

TEST(Dashboard, CruiseEmitsThrottleOnlyWhileEngaged) {
  DashboardSystem sys({.frames = 30});
  core::CoEstimator est(&sys.network(), {});
  sys.configure(est);
  est.prepare();
  const auto throttle = sys.network().event_id("THROTTLE");
  const auto set_ev = sys.network().event_id("CRUISE_SET");
  const auto off_ev = sys.network().event_id("CRUISE_OFF");
  sim::SimTime set_t = 0, off_t = 0;
  std::vector<sim::SimTime> throttle_t;
  est.set_environment_hook(
      [&](const sim::EventOccurrence& o, sim::EventQueue&) {
        if (o.event == throttle) throttle_t.push_back(o.time);
        if (o.event == set_ev) set_t = o.time;
        if (o.event == off_ev) off_t = o.time;
      });
  est.run(sys.stimulus());
  ASSERT_FALSE(throttle_t.empty());
  for (const auto t : throttle_t) {
    EXPECT_GT(t, set_t);
    // Allow the one control computation already in flight at disengage.
    EXPECT_LT(t, off_t + 3000);
  }
}

TEST(Dashboard, OdometerAdvancesWithDistance) {
  DashboardSystem sys({.frames = 40});
  core::CoEstimator est(&sys.network(), {});
  sys.configure(est);
  est.prepare();
  est.run(sys.stimulus());
  const auto& odo_state = est.process_state(sys.odometer());
  EXPECT_GT(odo_state.vars[1], 0);  // ODO ticks accumulated
}

TEST(Dashboard, AllAccelerationModesAgreeOnFunction) {
  for (const auto accel :
       {core::Acceleration::kCaching, core::Acceleration::kMacroModel,
        core::Acceleration::kSampling}) {
    DashboardSystem sys({.frames = 15});
    core::CoEstimatorConfig cfg;
    cfg.accel = accel;
    core::CoEstimator est(&sys.network(), cfg);
    sys.configure(est);
    est.prepare();
    int warnings = 0;
    est.set_environment_hook(
        [&](const sim::EventOccurrence& o, sim::EventQueue&) {
          if (o.event == sys.fuel_low_event()) ++warnings;
        });
    const auto r = est.run(sys.stimulus());
    EXPECT_FALSE(r.truncated);
    EXPECT_GT(r.total_energy, 0.0);
  }
}

}  // namespace
}  // namespace socpower::systems
