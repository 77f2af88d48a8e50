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
#include <sys/wait.h>
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

double seconds_since(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

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

// ---- ForkedEndpoint ---------------------------------------------------------

ForkedEndpoint::ForkedEndpoint(int index, pid_t pid, std::uint64_t token,
                               const serde::HelloFrame& expected_hello,
                               TransportStats* stats, BufferPool* pool,
                               std::uint64_t frame_limit, SharedArena* arena)
    : index_(index),
      stats_(stats),
      pool_(pool),
      arena_(arena),
      pid_(pid),
      token_(token),
      expected_hello_(expected_hello),
      rx_(frame_limit) {}

void ForkedEndpoint::kill() {
  if (killed_) return;
  killed_ = true;
  if (pid_ > 0 && !reaped_) ::kill(pid_, SIGKILL);
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void ForkedEndpoint::drain(BufferPool& pool) {
  while (!results_.empty()) {
    results_.front().c.release_to(pool);
    results_.pop_front();
  }
  rx_.clear();
}

void ForkedEndpoint::wait_hello(Acceptor& acceptor) {
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  while (fd_ < 0 && !failed_) {
    acceptor.poll();
    if (adopt(acceptor)) return;
    if (exited()) {
      mark_failed("exited before its handshake");
    } else if (Clock::now() >= deadline) {
      mark_failed("no bootstrap hello within 30s");
    } else {
      acceptor.wait(/*timeout_ms=*/10);
    }
  }
}

bool ForkedEndpoint::adopt(Acceptor& acceptor) {
  serde::HelloFrame hello;
  const int fd = acceptor.take(token_, &hello);
  if (fd < 0) return false;
  // Identity and resource fields legitimately differ per host; the
  // kernel configuration must be the master's, or the worker would
  // silently compute with different tile timings.
  if (!hello.same_kernel_config(expected_hello_)) {
    ::close(fd);
    mark_failed(
        "booted with a divergent kernel configuration "
        "(tier/micro-kernel/blocking)");
    return false;
  }
  serde::HelloFrame ack = expected_hello_;
  ack.token = token_;
  ByteBuffer frame;
  serde::encode_hello(ack, frame);
  try {
    // A fresh connection's send buffer is empty: the ack never blocks.
    write_exact(fd, frame.data(), frame.size());
  } catch (const std::exception& error) {
    ::close(fd);
    mark_failed(std::string("handshake ack failed: ") + error.what());
    return false;
  }
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
  rx_.clear();
  eof_ = false;
  failed_ = false;
  error_ = nullptr;
  return true;
}

void ForkedEndpoint::mark_failed(const std::string& reason) {
  if (failed_) return;
  std::string what = "worker process " + std::to_string(index_) + ": " +
                     reason;
  if (pid_ > 0 && !reaped_) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      reaped_ = true;
      if (WIFSIGNALED(status)) {
        what += " (killed by signal " + std::to_string(WTERMSIG(status)) +
                ")";
      } else if (WIFEXITED(status)) {
        what += " (exit status " + std::to_string(WEXITSTATUS(status)) + ")";
      }
    }
  }
  error_ = std::make_exception_ptr(std::runtime_error(what));
  failed_ = true;
}

bool ForkedEndpoint::exited() const {
  if (pid_ <= 0 || reaped_) return true;
  siginfo_t info;
  std::memset(&info, 0, sizeof info);
  // WNOWAIT: leave the zombie for mark_failed to reap and classify.
  return ::waitid(P_PID, static_cast<id_t>(pid_), &info,
                  WEXITED | WNOHANG | WNOWAIT) == 0 &&
         info.si_pid == pid_;
}

void ForkedEndpoint::dispatch(const std::uint8_t*, std::size_t) {
  mark_failed("unexpected frame from worker");
}

void ForkedEndpoint::encode(const WorkerMessage& message) {
  const auto serde_begin = Clock::now();
  tx_.clear();
  serde::encode(message, tx_);
  stats_->serde_seconds += seconds_since(serde_begin);
}

std::optional<ResultMessage> ForkedEndpoint::pop_result() {
  if (results_.empty()) return std::nullopt;
  ResultMessage result = std::move(results_.front());
  results_.pop_front();
  ++stats_->messages_received;
  return result;
}

void ForkedEndpoint::pump() {
  if (eof_ || fd_ < 0) return;
  constexpr std::size_t kChunk = 1 << 16;
  for (;;) {
    const ssize_t n = ::recv(fd_, rx_.reserve(kChunk), kChunk, 0);
    if (n > 0) {
      rx_.commit(static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < kChunk) break;
      continue;
    }
    if (n == 0 || errno == ECONNRESET) {
      eof_ = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    mark_failed(std::string("recv failed: ") + std::strerror(errno));
    return;
  }
  deliver(rx_);
  if (eof_ && !failed_ && !discarding_)
    mark_failed("exited unexpectedly (connection closed)");
}

void ForkedEndpoint::deliver(serde::FrameSplitter& rx) {
  try {
    // A corrupt length or corrupt content alike fails the worker
    // cleanly: the run recovers under tolerate_faults -- it must never
    // abort a tolerant run, and a corrupt prefix never sizes a buffer.
    while (const auto frame = rx.next()) {
      const std::uint8_t* body = frame->data();
      const std::size_t size = frame->size();
      stats_->bytes_received += serde::kLengthBytes + size;
      const FrameType type = serde::frame_type(body, size);
      if (type == FrameType::kError) {
        // A dying worker's notice carries its own root cause.
        mark_failed(serde::decode_error(body, size));
      } else if (type == FrameType::kResult) {
        const auto serde_begin = Clock::now();
        ResultMessage result = serde::decode_result(body, size, *pool_, arena_);
        stats_->serde_seconds += seconds_since(serde_begin);
        if (result.c.in_arena())
          stats_->bytes_zero_copied += result.c.size() * sizeof(double);
        if (discarding_)
          result.c.release_to(*pool_);
        else
          results_.push_back(std::move(result));
      } else {
        dispatch(body, size);
      }
    }
  } catch (const std::exception& error) {
    mark_failed(std::string("protocol corruption: ") + error.what());
  }
}

void ForkedEndpoint::wait_io(bool want_write, int timeout_ms) {
  if (eof_ || fd_ < 0) {
    if (!failed_) mark_failed("connection closed");
    return;
  }
  pollfd entry{fd_, static_cast<short>(POLLIN | (want_write ? POLLOUT : 0)),
               0};
  if (::poll(&entry, 1, timeout_ms) < 0 && errno != EINTR) {
    mark_failed(std::string("poll failed: ") + std::strerror(errno));
    return;
  }
  pump();
}

void ForkedEndpoint::teardown() noexcept {
  const bool force = failed_ || fd_ < 0;
  // Close first: the EOF is what makes a still-draining child exit, so
  // the blocking reap below cannot hang on a healthy worker.
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  if (pid_ > 0 && !reaped_) {
    // Killing an exited-but-unreaped child is a no-op (the zombie pins
    // the pid, so this cannot hit a recycled process).
    if (force) ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    reaped_ = true;
  }
  // Queued results parsed but never popped hand their storage back
  // (an arena slot must not stay pinned past the run).
  results_.clear();
}

}  // namespace hmxp::runtime
