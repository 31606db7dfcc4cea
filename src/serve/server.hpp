// Co-estimation session server: a long-lived process that accepts
// estimation requests over an AF_UNIX stream socket (the dist frame codec)
// and serves them from persistent, warm sessions.
//
// Threading model: one acceptor thread polls the listening socket; each
// accepted connection gets a connection thread that decodes frames and
// writes replies; the estimation work itself is submitted to a shared
// util::ThreadPool, so concurrent sessions multiplex onto a bounded worker
// set no matter how many clients connect. Requests against the same session
// additionally serialize on the session mutex (see session.hpp).
//
// Counters: the serve.{sessions,requests,checkpoint_bytes,restore_hits}
// counters and the request-latency stats are always-on process-local
// atomics (telemetry::Counter mutations are gated on telemetry::enabled(),
// which is off by default, and a server must be able to answer kServeStats
// regardless); they are additionally mirrored into the registry, so with
// telemetry on the usual report renderers see them too.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dist/channel.hpp"
#include "serve/session.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace socpower::serve {

struct ServerConfig {
  /// Filesystem path of the AF_UNIX listening socket (unlinked on start so
  /// a stale socket from a crashed server never blocks a restart, and on
  /// stop). Also settable via SOCPOWER_SERVE_SOCKET for the daemon.
  std::string socket_path;
  /// Estimation worker threads (0 = one per hardware thread); the
  /// SOCPOWER_SERVE_THREADS knob of the daemon.
  unsigned threads = 0;
  /// Acceptor poll period — bounds shutdown latency.
  int accept_poll_ms = 200;
  /// Upper bound on live sessions (0 = unbounded): beyond it, opening a new
  /// session evicts the least-recently-used one (see SessionTable). The
  /// SOCPOWER_SERVE_MAX_SESSIONS knob of the daemon.
  std::size_t max_sessions = 0;
};

class Server {
 public:
  explicit Server(ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the acceptor. False when the platform has
  /// no AF_UNIX support or the bind fails (path taken by a live server).
  [[nodiscard]] bool start();
  /// Stops accepting, joins all threads, unlinks the socket. Idempotent;
  /// also triggered remotely by kServeShutdown.
  void stop();
  [[nodiscard]] bool running() const;

  [[nodiscard]] const std::string& socket_path() const {
    return config_.socket_path;
  }

  /// The kServeStats payload, also available in-process (the daemon prints
  /// it on exit).
  [[nodiscard]] ServeStatsReply stats_snapshot() const;

 private:
  void accept_loop();
  void serve_connection(int fd);
  /// Decodes and executes one request; fills the reply frame. Returns false
  /// when the request asked for shutdown (reply is still sent first).
  bool handle(const dist::Frame& req, dist::Frame* reply);

  void reply_error(dist::Frame* reply, std::string message);

  ServerConfig config_;
  int listen_fd_ = -1;
  std::atomic<bool> stop_{true};
  std::thread acceptor_;
  std::mutex conns_mu_;
  std::vector<std::thread> conns_;

  std::unique_ptr<ThreadPool> pool_;
  SessionTable sessions_;

  std::atomic<std::uint64_t> n_sessions_{0};
  std::atomic<std::uint64_t> n_requests_{0};
  std::atomic<std::uint64_t> n_checkpoint_bytes_{0};
  std::atomic<std::uint64_t> n_restore_hits_{0};
  mutable std::mutex latency_mu_;
  RunningStats latency_ms_;
};

}  // namespace socpower::serve
