#include "serve/server.hpp"

#include <chrono>
#include <future>
#include <utility>

#if !defined(_WIN32)
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

#include <cstring>

#include "telemetry/registry.hpp"
#include "util/table.hpp"

namespace socpower::serve {

namespace {

/// Per-frame I/O timeout toward clients.
constexpr int kIoTimeoutMs = 30'000;

}  // namespace

using dist::Frame;
using dist::MsgType;
using dist::WireReader;
using dist::WireWriter;

Server::Server(ServerConfig config) : config_(std::move(config)) {}

Server::~Server() { stop(); }

bool Server::start() {
#if defined(_WIN32)
  return false;
#else
  if (!stop_.load()) return false;  // already running
  if (config_.socket_path.empty()) return false;

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (config_.socket_path.size() >= sizeof addr.sun_path) return false;
  std::memcpy(addr.sun_path, config_.socket_path.c_str(),
              config_.socket_path.size() + 1);

  // A stale socket file from a crashed server would fail the bind forever;
  // a *live* server holds the listening socket, so its bind still fails
  // after the unlink (it re-binds nothing — we only ever unlink, then bind
  // our own fresh socket).
  ::unlink(config_.socket_path.c_str());

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return false;
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }

  sessions_.set_max_sessions(config_.max_sessions);
  pool_ = std::make_unique<ThreadPool>(config_.threads);
  stop_.store(false);
  acceptor_ = std::thread([this] { accept_loop(); });
  return true;
#endif
}

void Server::stop() {
#if !defined(_WIN32)
  stop_.store(true);
  if (acceptor_.joinable()) acceptor_.join();
  std::vector<std::thread> conns;
  {
    std::lock_guard<std::mutex> lk(conns_mu_);
    conns.swap(conns_);
  }
  for (std::thread& t : conns)
    if (t.joinable()) t.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(config_.socket_path.c_str());
  }
  pool_.reset();
#endif
}

bool Server::running() const { return !stop_.load(); }

void Server::accept_loop() {
#if !defined(_WIN32)
  while (!stop_.load()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, config_.accept_poll_ms);
    if (rc <= 0) continue;  // timeout / EINTR: re-check the stop flag
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    std::lock_guard<std::mutex> lk(conns_mu_);
    conns_.emplace_back([this, fd] { serve_connection(fd); });
  }
#endif
}

void Server::serve_connection(int fd) {
  dist::Channel ch = dist::Channel::adopt(fd);
  while (!stop_.load()) {
    Frame req;
    const dist::Channel::RecvStatus st =
        ch.recv_frame(&req, config_.accept_poll_ms);
    if (st == dist::Channel::RecvStatus::kTimeout) continue;
    if (st != dist::Channel::RecvStatus::kOk) return;  // closed / error

    Frame reply;
    const bool keep_running = handle(req, &reply);
    (void)ch.send_frame(reply.type, reply.payload, kIoTimeoutMs);
    if (!keep_running) {
      // kServeShutdown: the reply is out; flag every loop down. stop()'s
      // thread joins happen on the owner's thread (daemon main / test),
      // which watches running().
      stop_.store(true);
      return;
    }
  }
}

void Server::reply_error(Frame* reply, std::string message) {
  WireWriter w;
  w.string(message);
  reply->type = MsgType::kServeError;
  reply->payload = w.take();
}

bool Server::handle(const Frame& req, Frame* reply) {
  static telemetry::Counter& c_requests =
      telemetry::registry().counter("serve.requests");
  static telemetry::Counter& c_sessions =
      telemetry::registry().counter("serve.sessions");
  static telemetry::Counter& c_ckpt_bytes =
      telemetry::registry().counter("serve.checkpoint_bytes");
  static telemetry::Counter& c_restores =
      telemetry::registry().counter("serve.restore_hits");
  static telemetry::HistogramStat& h_latency =
      telemetry::registry().histogram("serve.request_ms");

  WireReader r(req.payload);
  switch (req.type) {
    case MsgType::kServeHello: {
      std::uint32_t version = 0;
      r.u32(version);
      if (!r.ok() || !r.at_end()) {
        reply_error(reply, "malformed hello");
        return true;
      }
      if (version != kServeProtocolVersion) {
        reply_error(reply, "protocol version mismatch");
        return true;
      }
      WireWriter w;
      w.u32(kServeProtocolVersion);
      reply->type = MsgType::kReply;
      reply->payload = w.take();
      return true;
    }

    case MsgType::kServeOpen: {
      SystemParams system;
      StructuralConfig structural;
      if (!dist::decode(r, &system) || !dist::decode(r, &structural) ||
          !r.at_end()) {
        reply_error(reply, "malformed open request");
        return true;
      }
      const std::string key = session_key(system, structural);
      std::shared_ptr<Session> session = sessions_.find(key);
      bool created = false;
      if (!session) {
        // prepare() is the expensive part (SW compile, HW synthesis, macro
        // characterization): run it on the shared pool like any other
        // estimation work.
        std::string error;
        std::unique_ptr<Session> fresh;
        std::promise<void> done;
        auto fut = done.get_future();
        pool_->submit([&] {
          fresh = Session::create(system, structural, &error);
          done.set_value();
        });
        fut.wait();
        if (!fresh) {
          reply_error(reply, std::move(error));
          return true;
        }
        const Session* ours = fresh.get();
        session = sessions_.adopt(std::move(fresh));
        created = session.get() == ours;  // lost races reuse the winner
        if (created) {
          n_sessions_.fetch_add(1);
          c_sessions.add();
        }
      }
      WireWriter w;
      dist::encode(w, SessionReply{session->key(), created});
      reply->type = MsgType::kReply;
      reply->payload = w.take();
      return true;
    }

    case MsgType::kServeEstimate: {
      std::string key;
      RunRequest rr;
      r.string(key);
      if (!dist::decode(r, &rr) || !r.at_end()) {
        reply_error(reply, "malformed estimate request");
        return true;
      }
      const std::shared_ptr<Session> session = sessions_.find(key);
      if (!session) {
        reply_error(reply, "unknown session '" + key + "'");
        return true;
      }
      core::RunResults res;
      RequestStats stats;
      std::string error;
      bool ok = false;
      const auto t0 = std::chrono::steady_clock::now();
      std::promise<void> done;
      auto fut = done.get_future();
      pool_->submit([&] {
        ok = session->estimate(rr, &res, &stats, &error);
        done.set_value();
      });
      fut.wait();
      const double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      n_requests_.fetch_add(1);
      c_requests.add();
      h_latency.observe(ms);
      {
        std::lock_guard<std::mutex> lk(latency_mu_);
        latency_ms_.add(ms);
      }
      if (!ok) {
        reply_error(reply, std::move(error));
        return true;
      }
      WireWriter w;
      dist::encode(w, res);
      dist::encode(w, stats);
      reply->type = MsgType::kReply;
      reply->payload = w.take();
      return true;
    }

    case MsgType::kServeCheckpoint: {
      std::string key;
      r.string(key);
      if (!r.ok() || !r.at_end()) {
        reply_error(reply, "malformed checkpoint request");
        return true;
      }
      const std::shared_ptr<Session> session = sessions_.find(key);
      if (!session) {
        reply_error(reply, "unknown session '" + key + "'");
        return true;
      }
      std::vector<std::uint8_t> blob = encode_checkpoint(session->checkpoint());
      n_checkpoint_bytes_.fetch_add(blob.size());
      c_ckpt_bytes.add(blob.size());
      reply->type = MsgType::kReply;
      reply->payload = std::move(blob);
      return true;
    }

    case MsgType::kServeRestore: {
      Checkpoint ckpt;
      std::string error;
      if (!decode_checkpoint(req.payload, &ckpt, &error)) {
        reply_error(reply, std::move(error));
        return true;
      }
      const std::string key = session_key(ckpt.system, ckpt.structural);
      std::shared_ptr<Session> session = sessions_.find(key);
      bool restored = false;
      if (!session) {
        std::unique_ptr<Session> fresh;
        std::promise<void> done;
        auto fut = done.get_future();
        pool_->submit([&] {
          fresh = Session::restore(ckpt, &error);
          done.set_value();
        });
        fut.wait();
        if (!fresh) {
          reply_error(reply, std::move(error));
          return true;
        }
        const Session* ours = fresh.get();
        session = sessions_.adopt(std::move(fresh));
        restored = session.get() == ours;  // lost races reuse the winner
        if (restored) {
          n_sessions_.fetch_add(1);
          n_restore_hits_.fetch_add(1);
          c_sessions.add();
          c_restores.add();
        }
      }
      WireWriter w;
      dist::encode(w, SessionReply{session->key(), restored});
      reply->type = MsgType::kReply;
      reply->payload = w.take();
      return true;
    }

    case MsgType::kServeStats: {
      if (!r.at_end()) {
        reply_error(reply, "malformed stats request");
        return true;
      }
      WireWriter w;
      dist::encode(w, stats_snapshot());
      reply->type = MsgType::kReply;
      reply->payload = w.take();
      return true;
    }

    case MsgType::kServeShutdown: {
      reply->type = MsgType::kReply;
      reply->payload.clear();
      return false;
    }

    default:
      reply_error(reply, "unexpected message type");
      return true;
  }
}

ServeStatsReply Server::stats_snapshot() const {
  ServeStatsReply s;
  s.sessions = n_sessions_.load();
  s.requests = n_requests_.load();
  s.checkpoint_bytes = n_checkpoint_bytes_.load();
  s.restore_hits = n_restore_hits_.load();
  s.evictions = sessions_.evictions();
  RunningStats lat;
  {
    std::lock_guard<std::mutex> lk(latency_mu_);
    lat = latency_ms_;
  }
  s.latency_count = lat.count();
  if (lat.count() > 0) {
    s.latency_mean_ms = lat.mean();
    s.latency_min_ms = lat.min();
    s.latency_max_ms = lat.max();
  }

  TextTable t({"serve metric", "value"});
  t.add_row({"serve.sessions", std::to_string(s.sessions)});
  t.add_row({"serve.requests", std::to_string(s.requests)});
  t.add_row({"serve.checkpoint_bytes", std::to_string(s.checkpoint_bytes)});
  t.add_row({"serve.restore_hits", std::to_string(s.restore_hits)});
  t.add_row({"serve.evictions", std::to_string(s.evictions)});
  t.add_row({"request_ms.count", std::to_string(s.latency_count)});
  t.add_row({"request_ms.mean", TextTable::num(s.latency_mean_ms)});
  t.add_row({"request_ms.min", TextTable::num(s.latency_min_ms)});
  t.add_row({"request_ms.max", TextTable::num(s.latency_max_ms)});
  s.rendered = t.render();
  return s;
}

}  // namespace socpower::serve
