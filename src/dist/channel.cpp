#include "dist/channel.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <vector>

#if !defined(_WIN32)
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace socpower::dist {

namespace {

/// Parent-side fds of every live channel in this process. Children forked
/// after registration close them all (see header).
std::mutex g_parent_fds_mu;
std::vector<int> g_parent_fds;

void register_parent_fd(int fd) {
  std::lock_guard<std::mutex> lk(g_parent_fds_mu);
  g_parent_fds.push_back(fd);
}

void unregister_parent_fd(int fd) {
  std::lock_guard<std::mutex> lk(g_parent_fds_mu);
  g_parent_fds.erase(
      std::remove(g_parent_fds.begin(), g_parent_fds.end(), fd),
      g_parent_fds.end());
}

#if !defined(_WIN32)
/// Wait until `fd` is ready for the given poll events. Returns false on
/// timeout or error (including POLLERR-only wakeups; POLLHUP still counts as
/// ready so a closed peer is observed by the following read/send).
bool wait_ready(int fd, short events, int timeout_ms) {
  pollfd pfd{fd, events, 0};
  for (;;) {
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc > 0) return (pfd.revents & (events | POLLHUP | POLLERR)) != 0;
    if (rc == 0) return false;  // timeout
    if (errno != EINTR) return false;
  }
}
#endif

}  // namespace

Channel::~Channel() { close(); }

Channel::Channel(Channel&& other) noexcept
    : fd_(other.fd_), parent_side_(other.parent_side_),
      bytes_tx_(other.bytes_tx_), bytes_rx_(other.bytes_rx_) {
  other.fd_ = -1;
  other.parent_side_ = false;
}

Channel& Channel::operator=(Channel&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    parent_side_ = other.parent_side_;
    bytes_tx_ = other.bytes_tx_;
    bytes_rx_ = other.bytes_rx_;
    other.fd_ = -1;
    other.parent_side_ = false;
  }
  return *this;
}

bool Channel::make_pair(Channel* a, Channel* b) {
#if defined(_WIN32)
  (void)a;
  (void)b;
  return false;
#else
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) return false;
  *a = Channel(fds[0]);
  *b = Channel(fds[1]);
  return true;
#endif
}

Channel Channel::connect_unix(const std::string& path) {
#if defined(_WIN32)
  (void)path;
  return Channel();
#else
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof addr.sun_path) return Channel();
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Channel();
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) != 0) {
    ::close(fd);
    return Channel();
  }
  return Channel(fd);
#endif
}

void Channel::close() {
#if !defined(_WIN32)
  if (fd_ >= 0) {
    if (parent_side_) unregister_parent_fd(fd_);
    ::close(fd_);
  }
#endif
  fd_ = -1;
  parent_side_ = false;
}

void Channel::set_parent_side() {
  if (fd_ >= 0 && !parent_side_) {
    parent_side_ = true;
    register_parent_fd(fd_);
  }
}

bool Channel::send_frame(MsgType type, const std::vector<std::uint8_t>& payload,
                         int timeout_ms) {
#if defined(_WIN32)
  (void)type;
  (void)payload;
  (void)timeout_ms;
  return false;
#else
  if (fd_ < 0) return false;
  std::vector<std::uint8_t> buf;
  buf.reserve(5 + payload.size());
  const auto len = static_cast<std::uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i)
    buf.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
  buf.push_back(static_cast<std::uint8_t>(type));
  buf.insert(buf.end(), payload.begin(), payload.end());

  std::size_t off = 0;
  while (off < buf.size()) {
    if (!wait_ready(fd_, POLLOUT, timeout_ms)) return false;
    const ssize_t n =
        ::send(fd_, buf.data() + off, buf.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
    bytes_tx_ += static_cast<std::uint64_t>(n);
  }
  return true;
#endif
}

Channel::RecvStatus Channel::recv_frame(Frame* out, int timeout_ms) {
#if defined(_WIN32)
  (void)out;
  (void)timeout_ms;
  return RecvStatus::kError;
#else
  if (fd_ < 0) return RecvStatus::kError;
  auto read_exact = [&](std::uint8_t* dst, std::size_t want) -> RecvStatus {
    std::size_t off = 0;
    while (off < want) {
      if (!wait_ready(fd_, POLLIN, timeout_ms)) return RecvStatus::kTimeout;
      const ssize_t n = ::recv(fd_, dst + off, want - off, 0);
      if (n == 0) return RecvStatus::kClosed;
      if (n < 0) {
        if (errno == EINTR || errno == EAGAIN) continue;
        return errno == ECONNRESET ? RecvStatus::kClosed : RecvStatus::kError;
      }
      off += static_cast<std::size_t>(n);
      bytes_rx_ += static_cast<std::uint64_t>(n);
    }
    return RecvStatus::kOk;
  };

  std::uint8_t header[5];
  RecvStatus st = read_exact(header, sizeof header);
  if (st != RecvStatus::kOk) return st;
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i)
    len |= static_cast<std::uint32_t>(header[i]) << (8 * i);
  // A frame carries at most a full run's batch for one unit; anything past
  // this bound is protocol corruption, not data.
  if (len > (1u << 30)) return RecvStatus::kError;
  out->type = static_cast<MsgType>(header[4]);
  // Grow the buffer as the bytes arrive, not to the declared length: a
  // peer's 5-byte header must not make this process allocate a gigabyte.
  constexpr std::size_t kStep = std::size_t{1} << 15;
  out->payload.clear();
  while (out->payload.size() < len) {
    const std::size_t have = out->payload.size();
    out->payload.resize(std::min<std::size_t>(len, have + kStep));
    st = read_exact(out->payload.data() + have, out->payload.size() - have);
    if (st != RecvStatus::kOk) return st;
  }
  return RecvStatus::kOk;
#endif
}

bool fork_child(ChildProcess* p, const std::function<int(Channel&)>& serve) {
#if defined(_WIN32)
  (void)p;
  (void)serve;
  return false;
#else
  Channel parent_end;
  Channel child_end;
  if (!Channel::make_pair(&parent_end, &child_end)) return false;
  parent_end.set_parent_side();
  const pid_t pid = ::fork();
  if (pid < 0) return false;
  if (pid == 0) {
    // No lock: we are single-threaded right after fork() and the list is a
    // snapshot of the parent's registrations at fork time (ours included —
    // the parent keeps that end).
    for (const int fd : g_parent_fds) ::close(fd);
    g_parent_fds.clear();
    std::_Exit(serve(child_end));
  }
  child_end.close();
  p->pid = static_cast<long>(pid);
  p->ch = std::move(parent_end);
  return true;
#endif
}

void end_child(ChildProcess* p) {
#if !defined(_WIN32)
  if (p->pid >= 0) {
    if (p->ch.valid())
      (void)p->ch.send_frame(MsgType::kShutdown, {}, /*timeout_ms=*/1000);
    p->ch.close();
    ::kill(static_cast<pid_t>(p->pid), SIGKILL);
    int status = 0;
    (void)::waitpid(static_cast<pid_t>(p->pid), &status, 0);
  }
#endif
  p->pid = -1;
  p->ch.close();
}

}  // namespace socpower::dist
