// One frame-oriented duplex channel between the simulation master and one
// worker process, over a SOCK_STREAM socketpair.
//
// All I/O is poll-guarded: sends and receives take a timeout so a wedged or
// dead worker is detected (kTimeout / kClosed) instead of hanging the
// master. Writes use MSG_NOSIGNAL — a worker killed mid-run surfaces as an
// error return, never as SIGPIPE. Byte counters feed the
// estimator.<name>.dist.bytes_{tx,rx} telemetry.
//
// Worker processes: fork_child() and end_child() are the one way a worker
// is started and ended (the remote HW proxy forks one per HW unit). fork()
// hygiene: every parent-side fd registers itself in a process-wide list,
// and a freshly forked child closes them all so it does not hold other
// workers' parent endpoints open (a stray duplicate would defeat EOF-based
// crash detection for those workers).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "dist/wire.hpp"

namespace socpower::dist {

struct ChildProcess;

class Channel {
 public:
  Channel() = default;
  ~Channel();

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;
  Channel(Channel&& other) noexcept;
  Channel& operator=(Channel&& other) noexcept;

  /// Creates a connected pair. Returns false (with both ends invalid) when
  /// the platform has no socketpair or the call fails.
  static bool make_pair(Channel* a, Channel* b);

  /// Wraps an already-connected stream-socket fd (the serve/ layer's
  /// accepted AF_UNIX connections). Takes ownership of the fd.
  [[nodiscard]] static Channel adopt(int fd) { return Channel(fd); }

  /// Connects to the listening AF_UNIX socket at `path`. Returns an invalid
  /// channel on failure (no such socket, path too long, unsupported
  /// platform).
  [[nodiscard]] static Channel connect_unix(const std::string& path);

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  void close();

  /// Sends one frame. `timeout_ms` bounds the total blocking time (-1 =
  /// forever). False on timeout, peer death, or any error.
  [[nodiscard]] bool send_frame(MsgType type,
                                const std::vector<std::uint8_t>& payload,
                                int timeout_ms = -1);

  enum class RecvStatus { kOk, kTimeout, kClosed, kError };
  /// Receives one frame; kClosed on orderly EOF or a dead peer.
  [[nodiscard]] RecvStatus recv_frame(Frame* out, int timeout_ms = -1);

  [[nodiscard]] std::uint64_t bytes_tx() const { return bytes_tx_; }
  [[nodiscard]] std::uint64_t bytes_rx() const { return bytes_rx_; }

 private:
  explicit Channel(int fd) : fd_(fd) {}
  friend bool fork_child(ChildProcess* p,
                         const std::function<int(Channel&)>& serve);
  /// Mark this end as living in the parent process (a child forked later
  /// closes it); undone automatically by close().
  void set_parent_side();

  int fd_ = -1;
  bool parent_side_ = false;
  std::uint64_t bytes_tx_ = 0;
  std::uint64_t bytes_rx_ = 0;
};

/// A forked worker process and the parent's end of its channel.
struct ChildProcess {
  long pid = -1;
  Channel ch;
};

/// Forks a child that closes every parent-side fd, runs serve() on its end
/// of a fresh channel and _Exits with the result (no atexit handlers or
/// static destructors of the parent run in it). False, with `*p` untouched,
/// when the platform cannot fork or a call fails.
[[nodiscard]] bool fork_child(ChildProcess* p,
                              const std::function<int(Channel&)>& serve);

/// Ends a child: a kShutdown frame while its channel is open, close the
/// channel, SIGKILL (a no-op for a child that already exited; it keeps a
/// wedged one from hanging the reap), reap. Idempotent.
void end_child(ChildProcess* p);

}  // namespace socpower::dist
