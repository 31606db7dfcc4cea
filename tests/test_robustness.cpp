// Robustness: the DSL parser must reject arbitrary garbage gracefully
// (error string, no crash), and long co-estimation runs stay deterministic
// and bounded.
#include <gtest/gtest.h>

#include "cfsm/dsl.hpp"
#include "core/coestimator.hpp"
#include "systems/tcpip.hpp"
#include "util/rng.hpp"

namespace socpower {
namespace {

TEST(Robustness, ParserSurvivesRandomGarbage) {
  Rng rng(13);
  const char alphabet[] =
      "abcdefghijklmnopqrstuvwxyz0123456789(){};=,<>!&|^+-*/%~ \n\t";
  for (int trial = 0; trial < 300; ++trial) {
    std::string src;
    const std::size_t len = rng.below(200);
    for (std::size_t i = 0; i < len; ++i)
      src += alphabet[rng.below(sizeof(alphabet) - 1)];
    cfsm::Network net;
    const auto r = cfsm::parse_network(src, net);
    // Garbage essentially never parses; if it somehow does, the network
    // must at least validate.
    if (r.ok()) {
      EXPECT_TRUE(net.validate().empty());
    } else {
      EXPECT_FALSE(r.error.empty());
    }
  }
}

TEST(Robustness, ParserSurvivesMutatedValidModels) {
  // Take a valid model and corrupt single characters: every mutation must
  // either parse cleanly or produce a located diagnostic.
  const std::string base = R"(
    event A, B;
    process p {
      input A; output B;
      var x = 1;
      if (present(A) && x < 100) { x = x * 2; emit B(x); }
    }
  )";
  Rng rng(21);
  for (int trial = 0; trial < 300; ++trial) {
    std::string src = base;
    const std::size_t pos = rng.below(src.size());
    src[pos] = static_cast<char>(32 + rng.below(95));
    cfsm::Network net;
    const auto r = cfsm::parse_network(src, net);
    if (!r.ok()) {
      EXPECT_NE(r.error.find("line"), std::string::npos);
    }
  }
}

TEST(Robustness, LongRunDeterministicAndLinear) {
  // 200 packets: results identical across two runs, and the reaction count
  // scales linearly with the workload (no hidden quadratic blowup).
  auto run_packets = [](int packets) {
    systems::TcpIpSystem sys({.num_packets = packets, .packet_bytes = 64,
                              .packet_gap = 40});
    core::CoEstimator est(&sys.network(), {});
    sys.configure(est);
    est.prepare();
    const auto r = est.run(sys.stimulus());
    EXPECT_EQ(sys.packets_ok(est), packets);
    return r;
  };
  const auto a = run_packets(200);
  const auto b = run_packets(200);
  EXPECT_DOUBLE_EQ(a.total_energy, b.total_energy);
  EXPECT_EQ(a.end_time, b.end_time);
  const auto half = run_packets(100);
  const double ratio = static_cast<double>(a.reactions) /
                       static_cast<double>(half.reactions);
  EXPECT_NEAR(ratio, 2.0, 0.1);
}

TEST(Robustness, ManyProcessesShareTheIssMemorySafely) {
  // 12 software processes: the linker must lay them all out within the ISS
  // memory, and each keeps independent state.
  std::string src = "event GO;\n";
  for (int i = 0; i < 12; ++i) {
    src += "process p" + std::to_string(i) + " { input GO; var v = " +
           std::to_string(i) + "; v = v + " + std::to_string(i + 1) +
           "; }\n";
  }
  cfsm::Network net;
  ASSERT_TRUE(cfsm::parse_network(src, net).ok());
  core::CoEstimatorConfig cfg;
  cfg.verify_lowlevel = true;
  core::CoEstimator est(&net, cfg);
  for (int i = 0; i < 12; ++i)
    est.map_sw(net.cfsm_id(std::string("p").append(std::to_string(i))), i);
  est.prepare();
  sim::Stimulus stim;
  stim.add(1, net.event_id("GO"));
  stim.add(100, net.event_id("GO"));
  const auto r = est.run(stim);
  EXPECT_FALSE(r.truncated);
  for (int i = 0; i < 12; ++i)
    EXPECT_EQ(est.process_state(
                     net.cfsm_id(std::string("p").append(std::to_string(i))))
                  .vars[0],
              i + 2 * (i + 1));
}

}  // namespace
}  // namespace socpower
