// Session-server end-to-end tests.
//
// The headline contract mirrors the ISSUE's acceptance criteria: all 38
// facade goldens reproduce bit-identically when estimated through the
// server (two sessions serve all 38 rows — every config difference inside a
// system is a per-run knob), a checkpoint written by a hot server restores
// in a FRESH process and replays the goldens bit-identically there, and a
// session's second request shows a strictly higher warm-cache hit rate than
// its first.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dist/wire.hpp"
#include "facade_goldens.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "systems/prodcons.hpp"

#if !defined(_WIN32)
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace socpower::serve {
namespace {

std::string unique_socket(const char* tag) {
  return ::testing::TempDir() + "socpower_serve_" + tag + "_" +
         std::to_string(::getpid()) + ".sock";
}

/// SystemParams of the goldens' two TcpIp configurations.
SystemParams golden_system(const std::string& system) {
  const systems::TcpIpParams p = core::params_for(system);
  SystemParams sp;
  sp.name = "tcpip";
  sp.set("num_packets", p.num_packets);
  sp.set("packet_bytes", p.packet_bytes);
  sp.set("ip_check_in_hw", p.ip_check_in_hw ? 1 : 0);
  sp.set("checksum_rtl_estimator", p.checksum_rtl_estimator ? 1 : 0);
  sp.set("seed", static_cast<std::int64_t>(p.seed));
  return sp;
}

/// RunRequest reconstructed from a golden tag's mode suffix.
RunRequest golden_request(const std::string& mode) {
  bool separate = false;
  const core::CoEstimatorConfig cfg = core::config_for(mode, &separate);
  RunRequest rr = RunRequest::from(cfg);
  rr.separate = separate;
  return rr;
}

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!dist::supported()) GTEST_SKIP() << "no fork/socketpair";
  }

  bool start(const char* tag, unsigned threads = 2,
             std::size_t max_sessions = 0) {
    ServerConfig cfg;
    cfg.socket_path = unique_socket(tag);
    cfg.threads = threads;
    cfg.max_sessions = max_sessions;
    server_ = std::make_unique<Server>(cfg);
    return server_->start();
  }

  void TearDown() override {
    if (server_) server_->stop();
  }

  std::unique_ptr<Server> server_;
};

TEST_F(ServeTest, GoldensBitIdenticalThroughServer) {
  ASSERT_TRUE(start("goldens"));
  std::string error;
  Client client = Client::connect(server_->socket_path(), &error);
  ASSERT_TRUE(client.valid()) << error;

  // Two sessions cover all 38 rows: everything inside a system is per-run.
  std::string keys[2];
  for (int i = 0; i < 2; ++i) {
    bool created = false;
    ASSERT_TRUE(client.open_session(golden_system(i == 0 ? "gate" : "mixed"),
                                    StructuralConfig{}, &keys[i], &created,
                                    &error))
        << error;
    EXPECT_TRUE(created);
  }
  EXPECT_NE(keys[0], keys[1]);

  for (const core::Golden& golden : core::kGoldens) {
    SCOPED_TRACE(golden.tag);
    const std::string tag = golden.tag;
    const std::size_t slash = tag.find('/');
    const std::string& key = tag.substr(0, slash) == "gate" ? keys[0]
                                                            : keys[1];
    core::RunResults res;
    RequestStats stats;
    ASSERT_TRUE(client.estimate(key, golden_request(tag.substr(slash + 1)),
                                &res, &stats, &error))
        << error;
    core::expect_matches(res, golden.v);
  }

  ServeStatsReply stats;
  ASSERT_TRUE(client.stats(&stats, &error)) << error;
  EXPECT_EQ(stats.sessions, 2u);
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(std::size(
                                core::kGoldens)));
  EXPECT_EQ(stats.latency_count, stats.requests);
  EXPECT_NE(stats.rendered.find("serve.sessions"), std::string::npos);
}

#if !defined(_WIN32)
TEST_F(ServeTest, CheckpointFromHotServerRestoresInFreshProcess) {
  // Hot server: open both golden sessions, warm them with one caching run
  // each, pull checkpoints.
  ASSERT_TRUE(start("hot"));
  std::string error;
  Client hot = Client::connect(server_->socket_path(), &error);
  ASSERT_TRUE(hot.valid()) << error;
  std::vector<std::uint8_t> blobs[2];
  for (int i = 0; i < 2; ++i) {
    std::string key;
    ASSERT_TRUE(hot.open_session(golden_system(i == 0 ? "gate" : "mixed"),
                                 StructuralConfig{}, &key, nullptr, &error))
        << error;
    core::RunResults res;
    ASSERT_TRUE(hot.estimate(key, golden_request("caching/batch1/t1"), &res,
                             nullptr, &error))
        << error;
    ASSERT_TRUE(hot.checkpoint(key, &blobs[i], &error)) << error;
    EXPECT_GT(blobs[i].size(), 24u);  // header + a non-trivial payload
  }
  server_->stop();
  server_.reset();

  // Fresh process: a forked child hosts a brand-new server (empty session
  // table, cold caches). All assertions stay in the parent.
  const std::string fresh_path = unique_socket("fresh");
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ServerConfig cfg;
    cfg.socket_path = fresh_path;
    cfg.threads = 2;
    Server fresh(cfg);
    if (!fresh.start()) ::_exit(1);
    while (fresh.running())
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    fresh.stop();
    ::_exit(0);
  }

  // Wait for the child's socket to come up.
  Client client;
  for (int attempt = 0; attempt < 100 && !client.valid(); ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    client = Client::connect(fresh_path, &error);
  }
  ASSERT_TRUE(client.valid()) << error;

  std::string keys[2];
  for (int i = 0; i < 2; ++i) {
    bool restored = false;
    ASSERT_TRUE(client.restore(blobs[i], &keys[i], &restored, &error))
        << error;
    EXPECT_TRUE(restored);
  }

  // The restored sessions replay every golden row bit-identically.
  for (const core::Golden& golden : core::kGoldens) {
    SCOPED_TRACE(golden.tag);
    const std::string tag = golden.tag;
    const std::size_t slash = tag.find('/');
    const std::string& key = tag.substr(0, slash) == "gate" ? keys[0]
                                                            : keys[1];
    core::RunResults res;
    RequestStats stats;
    ASSERT_TRUE(client.estimate(key, golden_request(tag.substr(slash + 1)),
                                &res, &stats, &error))
        << error;
    EXPECT_TRUE(stats.restored_session);
    core::expect_matches(res, golden.v);
  }

  ServeStatsReply stats;
  ASSERT_TRUE(client.stats(&stats, &error)) << error;
  EXPECT_EQ(stats.restore_hits, 2u);
  EXPECT_TRUE(client.shutdown(&error)) << error;
  int status = -1;
  ::waitpid(pid, &status, 0);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}
#endif

TEST_F(ServeTest, SecondRequestHasStrictlyHigherWarmHitRate) {
  ASSERT_TRUE(start("warm"));
  std::string error;
  Client client = Client::connect(server_->socket_path(), &error);
  ASSERT_TRUE(client.valid()) << error;
  std::string key;
  ASSERT_TRUE(client.open_session(golden_system("gate"), StructuralConfig{},
                                  &key, nullptr, &error))
      << error;
  const RunRequest rr = golden_request("none/batch1/t1");
  core::RunResults r1, r2;
  RequestStats s1, s2;
  ASSERT_TRUE(client.estimate(key, rr, &r1, &s1, &error)) << error;
  ASSERT_TRUE(client.estimate(key, rr, &r2, &s2, &error)) << error;
  // Bit-identical results either way...
  EXPECT_EQ(r1.total_energy, r2.total_energy);
  EXPECT_EQ(r1.iss_instructions, r2.iss_instructions);
  // ...but the warm request hits the persistent caches at a strictly
  // higher rate (within-run locality gives even a cold run some hits, so
  // compare rates, not counts).
  ASSERT_GT(s1.warm_hits + s1.warm_fills, 0u);
  ASSERT_GT(s2.warm_hits + s2.warm_fills, 0u);
  const double cold_rate = static_cast<double>(s1.warm_hits) /
                           static_cast<double>(s1.warm_hits + s1.warm_fills);
  const double warm_rate = static_cast<double>(s2.warm_hits) /
                           static_cast<double>(s2.warm_hits + s2.warm_fills);
  EXPECT_GT(warm_rate, cold_rate);
  EXPECT_EQ(s2.run_index, 1u);
}

TEST_F(ServeTest, ConcurrentStructurallyDistinctSessionsStayIsolated) {
  ASSERT_TRUE(start("isolate", 4));
  // Two structurally distinct sessions (different TcpIp seeds => different
  // packet contents => different energies), driven concurrently from two
  // connections. Each must reproduce its own in-process reference exactly.
  SystemParams sys_a = golden_system("gate");
  SystemParams sys_b = golden_system("gate");
  sys_b.set("seed", 1234);
  const RunRequest rr = golden_request("caching/batch1/t1");

  core::RunResults ref_a, ref_b;
  {
    std::string error;
    std::unique_ptr<Session> sa =
        Session::create(sys_a, StructuralConfig{}, &error);
    ASSERT_NE(sa, nullptr) << error;
    ASSERT_TRUE(sa->estimate(rr, &ref_a, nullptr, &error)) << error;
    std::unique_ptr<Session> sb =
        Session::create(sys_b, StructuralConfig{}, &error);
    ASSERT_NE(sb, nullptr) << error;
    ASSERT_TRUE(sb->estimate(rr, &ref_b, nullptr, &error)) << error;
  }
  ASSERT_NE(ref_a.total_energy, ref_b.total_energy)
      << "test systems unexpectedly equivalent";

  constexpr int kRounds = 4;
  core::RunResults got_a[kRounds], got_b[kRounds];
  bool ok_a = false, ok_b = false;
  std::string err_a, err_b;
  std::thread ta([&] {
    Client c = Client::connect(server_->socket_path(), &err_a);
    if (!c.valid()) return;
    std::string key;
    if (!c.open_session(sys_a, StructuralConfig{}, &key, nullptr, &err_a))
      return;
    for (int i = 0; i < kRounds; ++i)
      if (!c.estimate(key, rr, &got_a[i], nullptr, &err_a)) return;
    ok_a = true;
  });
  std::thread tb([&] {
    Client c = Client::connect(server_->socket_path(), &err_b);
    if (!c.valid()) return;
    std::string key;
    if (!c.open_session(sys_b, StructuralConfig{}, &key, nullptr, &err_b))
      return;
    for (int i = 0; i < kRounds; ++i)
      if (!c.estimate(key, rr, &got_b[i], nullptr, &err_b)) return;
    ok_b = true;
  });
  ta.join();
  tb.join();
  ASSERT_TRUE(ok_a) << err_a;
  ASSERT_TRUE(ok_b) << err_b;
  for (int i = 0; i < kRounds; ++i) {
    EXPECT_EQ(got_a[i].total_energy, ref_a.total_energy) << "round " << i;
    EXPECT_EQ(got_b[i].total_energy, ref_b.total_energy) << "round " << i;
  }
}

TEST_F(ServeTest, ProdConsSessionsWorkToo) {
  ASSERT_TRUE(start("prodcons"));
  std::string error;
  Client client = Client::connect(server_->socket_path(), &error);
  ASSERT_TRUE(client.valid()) << error;
  SystemParams sp;
  sp.name = "prodcons";
  sp.set("num_packets", 4);
  sp.set("horizon", 2048);
  std::string key;
  ASSERT_TRUE(client.open_session(sp, StructuralConfig{}, &key, nullptr,
                                  &error))
      << error;
  core::RunResults res;
  ASSERT_TRUE(client.estimate(key, RunRequest{}, &res, nullptr, &error))
      << error;
  EXPECT_GT(res.total_energy, 0.0);
  EXPECT_GT(res.reactions, 0u);
}

TEST_F(ServeTest, BoundedTableEvictsLeastRecentlyUsedSession) {
  // Cap the table at 2 sessions: opening a third evicts the LRU one. Which
  // one is LRU is steered by touching session A between the opens.
  ASSERT_TRUE(start("evict", 2, /*max_sessions=*/2));
  std::string error;
  Client client = Client::connect(server_->socket_path(), &error);
  ASSERT_TRUE(client.valid()) << error;

  SystemParams sys[3];
  for (int i = 0; i < 3; ++i) {
    sys[i].name = "prodcons";
    sys[i].set("num_packets", 2 + i);  // three distinct sessions
    sys[i].set("horizon", 1024);
  }
  std::string keys[3];
  ASSERT_TRUE(client.open_session(sys[0], StructuralConfig{}, &keys[0],
                                  nullptr, &error))
      << error;
  ASSERT_TRUE(client.open_session(sys[1], StructuralConfig{}, &keys[1],
                                  nullptr, &error))
      << error;
  // Touch A so B becomes least-recently-used.
  core::RunResults res;
  ASSERT_TRUE(client.estimate(keys[0], RunRequest{}, &res, nullptr, &error))
      << error;
  // Opening C (at the cap) evicts B, not A.
  ASSERT_TRUE(client.open_session(sys[2], StructuralConfig{}, &keys[2],
                                  nullptr, &error))
      << error;
  ASSERT_TRUE(client.estimate(keys[0], RunRequest{}, &res, nullptr, &error))
      << "session A should have survived: " << error;
  EXPECT_FALSE(client.estimate(keys[1], RunRequest{}, &res, nullptr, &error));
  EXPECT_NE(error.find("unknown session"), std::string::npos) << error;

  ServeStatsReply stats;
  ASSERT_TRUE(client.stats(&stats, &error)) << error;
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_NE(stats.rendered.find("serve.evictions"), std::string::npos);

  // An evicted session is re-openable — warm state gone, key identical.
  std::string reopened;
  bool created = false;
  ASSERT_TRUE(client.open_session(sys[1], StructuralConfig{}, &reopened,
                                  &created, &error))
      << error;
  EXPECT_EQ(reopened, keys[1]);
  EXPECT_TRUE(created);
}

TEST_F(ServeTest, ErrorRepliesNameTheProblem) {
  ASSERT_TRUE(start("errors"));
  std::string error;
  Client client = Client::connect(server_->socket_path(), &error);
  ASSERT_TRUE(client.valid()) << error;

  // Unknown session key.
  core::RunResults res;
  EXPECT_FALSE(client.estimate("deadbeefdeadbeef", RunRequest{}, &res,
                               nullptr, &error));
  EXPECT_NE(error.find("unknown session"), std::string::npos) << error;

  // Unknown system / unknown parameter.
  SystemParams bad;
  bad.name = "warp-drive";
  EXPECT_FALSE(client.open_session(bad, StructuralConfig{}, nullptr, nullptr,
                                   &error));
  EXPECT_NE(error.find("unknown system"), std::string::npos) << error;
  SystemParams typo = golden_system("gate");
  typo.set("packet_bites", 64);
  EXPECT_FALSE(client.open_session(typo, StructuralConfig{}, nullptr, nullptr,
                                   &error));
  EXPECT_NE(error.find("unknown parameter"), std::string::npos) << error;

  // Invalid per-run knobs are rejected by validation, not crashed on.
  std::string key;
  ASSERT_TRUE(client.open_session(golden_system("mixed"), StructuralConfig{},
                                  &key, nullptr, &error))
      << error;
  RunRequest invalid = golden_request("none/batch0/t1");
  invalid.config.hw_flush_threads = 4;  // parallel flush needs hw_batch
  EXPECT_FALSE(client.estimate(key, invalid, &res, nullptr, &error));
  EXPECT_NE(error.find("invalid run request"), std::string::npos) << error;

  // Restoring garbage bytes fails with the decoder's message.
  EXPECT_FALSE(client.restore({1, 2, 3}, nullptr, nullptr, &error));
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;

  // A protocol-version mismatch is refused at hello.
  dist::Channel raw = dist::Channel::connect_unix(server_->socket_path());
  ASSERT_TRUE(raw.valid());
  dist::WireWriter w;
  w.put_u32(kServeProtocolVersion + 1);
  ASSERT_TRUE(raw.send_frame(dist::MsgType::kServeHello, w.bytes(), 5000));
  dist::Frame reply;
  ASSERT_EQ(raw.recv_frame(&reply, 5000), dist::Channel::RecvStatus::kOk);
  EXPECT_EQ(reply.type, dist::MsgType::kServeError);
}

TEST_F(ServeTest, ShutdownRequestStopsTheServer) {
  ASSERT_TRUE(start("shutdown"));
  std::string error;
  Client client = Client::connect(server_->socket_path(), &error);
  ASSERT_TRUE(client.valid()) << error;
  ASSERT_TRUE(client.shutdown(&error)) << error;
  for (int i = 0; i < 100 && server_->running(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(server_->running());
  server_->stop();
  // A second start on the same path works after a clean stop.
  EXPECT_TRUE(server_->start());
}

}  // namespace
}  // namespace socpower::serve
