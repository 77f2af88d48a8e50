#include "runtime/forked_worker.hpp"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <random>
#include <stdexcept>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#if defined(__linux__)
#include <sys/prctl.h>
#endif

#include "runtime/socket_util.hpp"
#include "util/check.hpp"

namespace hmxp::runtime {

namespace {

using Clock = std::chrono::steady_clock;
using serde::ByteBuffer;
using serde::FrameType;

/// Handshake frames are a fixed handful of integers; anything bigger is
/// not a worker saying hello. Bounding the PRE-authentication read this
/// tightly means an unauthenticated peer can never make the master
/// allocate.
constexpr std::uint64_t kHandshakeFrameBytes = 4096;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  HMXP_CHECK(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
             "fcntl O_NONBLOCK failed");
}

}  // namespace

// ---- spawning and the child side --------------------------------------------

pid_t fork_worker(const std::vector<int>& foreign_fds) {
  const pid_t pid = ::fork();
  HMXP_CHECK(pid >= 0, "fork failed");
  if (pid == 0) {
    for (const int fd : foreign_fds)
      if (fd >= 0) ::close(fd);
#if defined(__linux__)
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
#endif
  }
  return pid;
}

SocketPairs::SocketPairs(std::size_t count)
    : master_(count, -1), child_(count, -1), released_(count, false) {
  for (std::size_t i = 0; i < count; ++i) {
    int fds[2];
    HMXP_CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0,
               "socketpair failed");
    master_[i] = fds[0];
    child_[i] = fds[1];
  }
}

SocketPairs::~SocketPairs() {
  for (std::size_t i = 0; i < master_.size(); ++i) {
    if (!released_[i] && master_[i] >= 0) ::close(master_[i]);
    if (child_[i] >= 0) ::close(child_[i]);
  }
}

std::vector<int> SocketPairs::foreign_to(std::size_t i) const {
  std::vector<int> fds = master_;
  for (std::size_t j = 0; j < child_.size(); ++j)
    if (j != i) fds.push_back(child_[j]);
  return fds;
}

int SocketPairs::release_master(std::size_t i) {
  ::close(child_[i]);
  child_[i] = -1;
  released_[i] = true;
  set_nonblocking(master_[i]);
  return master_[i];
}

[[noreturn]] void run_worker_child(
    const matrix::KernelConfig& config,
    const std::function<void(BufferPool&)>& serve,
    const std::function<void(const std::string&)>& notify) {
  // The worker's private pool: payloads it decodes and results it
  // encodes recycle in its own address space.
  BufferPool pool;
  try {
    // fork() inherits the dispatch statics, but the master's full kernel
    // configuration -- tier, micro-kernel variant AND the blocking --
    // is re-asserted explicitly (and exported) so the guarantee holds
    // for a transport that execs instead of forking, and for the
    // worker's own children: the child can never resolve differently
    // from the master.
    matrix::install_kernel_config(config);
    serve(pool);
  } catch (const std::exception& error) {
    try {
      notify(error.what());
    } catch (...) {
      // The socket is gone too; the EOF alone carries the news.
    }
    ::_exit(2);
  } catch (...) {
    ::_exit(2);
  }
  ::_exit(0);
}

void send_error_notice(int fd, const std::string& what) {
  ByteBuffer notice;
  serde::encode_error(what, notice);
  write_exact(fd, notice.data(), notice.size());
}

void handshake(int fd, std::uint64_t token) {
  serde::HelloFrame hello = serde::local_hello(matrix::current_kernel_config());
  hello.token = token;
  ByteBuffer frame;
  serde::encode_hello(hello, frame);
  write_exact(fd, frame.data(), frame.size());

  ByteBuffer body;
  if (!read_frame(fd, body, kHandshakeFrameBytes))
    throw PeerDisconnected("master closed the connection during handshake");
  switch (serde::frame_type(body.data(), body.size())) {
    case FrameType::kHello:
      serde::decode_hello(body.data(), body.size());
      return;
    case FrameType::kError:
      throw std::runtime_error("master rejected handshake: " +
                               serde::decode_error(body.data(), body.size()));
    default:
      throw std::runtime_error("unexpected handshake reply from master");
  }
}

// ---- Acceptor ---------------------------------------------------------------

Acceptor::Acceptor() {
  std::random_device entropy;
  token_base_ =
      ((static_cast<std::uint64_t>(entropy()) << 32) ^ entropy()) | 1;
}

std::uint16_t Acceptor::listen_loopback() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  HMXP_CHECK(listen_fd_ >= 0, "socket failed");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral: the kernel picks a free port
  HMXP_CHECK(::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof addr) == 0,
             "bind 127.0.0.1 failed");
  HMXP_CHECK(::listen(listen_fd_, 64) == 0, "listen failed");
  socklen_t len = sizeof addr;
  HMXP_CHECK(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                           &len) == 0,
             "getsockname failed");
  set_nonblocking(listen_fd_);
  return ntohs(addr.sin_port);
}

void Acceptor::admit(int fd) {
  pending_.push_back(Pending{fd, serde::FrameSplitter(kHandshakeFrameBytes),
                             Clock::now() + std::chrono::seconds(10)});
}

void Acceptor::poll() {
  if (listen_fd_ >= 0) {
    for (;;) {
      const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
      if (fd < 0) {
        if (errno == EINTR) continue;
        break;  // EAGAIN or a transient accept error: try again later
      }
      set_tcp_nodelay(fd);
      admit(fd);
    }
  }
  const auto now = Clock::now();
  for (std::size_t i = 0; i < pending_.size();) {
    if (advance(pending_[i]) || now >= pending_[i].deadline) {
      if (pending_[i].fd >= 0) ::close(pending_[i].fd);
      pending_[i] = std::move(pending_.back());
      pending_.pop_back();
      continue;
    }
    ++i;
  }
}

void Acceptor::wait(int timeout_ms) {
  std::vector<pollfd> fds;
  if (listen_fd_ >= 0) fds.push_back(pollfd{listen_fd_, POLLIN, 0});
  for (const Pending& conn : pending_)
    fds.push_back(pollfd{conn.fd, POLLIN, 0});
  ::poll(fds.data(), fds.size(), timeout_ms);
}

int Acceptor::take(std::uint64_t token, serde::HelloFrame* hello) {
  for (std::size_t i = 0; i < staged_.size(); ++i) {
    if (staged_[i].hello.token != token) continue;
    const int fd = staged_[i].fd;
    *hello = staged_[i].hello;
    staged_[i] = std::move(staged_.back());
    staged_.pop_back();
    return fd;
  }
  return -1;
}

void Acceptor::close_all() noexcept {
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (const Pending& conn : pending_)
    if (conn.fd >= 0) ::close(conn.fd);
  pending_.clear();
  for (const Staged& conn : staged_)
    if (conn.fd >= 0) ::close(conn.fd);
  staged_.clear();
}

/// Reads whatever the pending connection has; true when it should be
/// dropped (EOF, corruption, rejection), false to keep waiting. A
/// completed valid hello moves the connection to staged_ (also
/// returning true -- the fd moved, Pending::fd is cleared).
bool Acceptor::advance(Pending& conn) {
  constexpr std::size_t kChunk = 1024;
  for (;;) {
    const ssize_t n = ::recv(conn.fd, conn.rx.reserve(kChunk), kChunk, 0);
    if (n > 0) {
      conn.rx.commit(static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) return true;  // EOF before a full hello
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    return true;  // reset or a real error: drop
  }
  try {
    const auto hello = conn.rx.next();
    if (!hello) return false;
    staged_.push_back(
        Staged{conn.fd, serde::decode_hello(hello->data(), hello->size())});
    conn.fd = -1;  // ownership moved
  } catch (const std::exception& error) {
    // Not an hmxp worker, or a version skew: tell it why (the error
    // names both versions) and close. Best-effort -- the peer may
    // already be gone, and the fd is nonblocking.
    try {
      send_error_notice(conn.fd, error.what());
    } catch (...) {
    }
  }
  return true;
}

}  // namespace hmxp::runtime
