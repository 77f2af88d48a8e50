// The forked-worker lifecycle shared by every transport whose workers
// are child processes: the stream transport (process and tcp kinds,
// stream_transport.cpp) and the shm transport's bootstrap and death
// channel (shm_transport.cpp). Those transports differ in how payloads
// move; everything about the child PROCESS lives here once:
//
//   * spawning -- fork_worker forks with fd hygiene and PR_SET_PDEATHSIG,
//     SocketPairs pre-creates the per-worker socketpair ends a child
//     inherits, and run_worker_child is the child's entry: install the
//     master's kernel configuration, serve, ship a kError notice if the
//     worker dies of an exception, _exit;
//   * the handshake -- one hello -> ack exchange for every fork
//     transport. The child's hello carries its identity token and the
//     kernel configuration it ACTUALLY runs; it then blocks for the
//     master's ack. On the master, an Acceptor reads hellos from
//     connections it accepted on a loopback listen socket or was handed
//     as socketpair ends, under a tight size bound and a deadline,
//     rejects strangers (bad magic, wrong protocol version) with a kError
//     naming both versions, and stages the rest by token until the
//     owning endpoint claims them;
//   * the master's per-worker base, ForkedEndpoint: the bounded hello
//     wait, the socket pump that surfaces kError notices and EOF, death
//     classification from the kError text or the waitpid status, kill()
//     and reaping.
//
// NOTE on fork without exec: the child deliberately inherits the
// master's address space (options, schedules, fault_hook closures and
// the kernel-dispatch statics all come along for free -- an exec'ing
// transport could ship none of them). POSIX only blesses
// async-signal-safe calls in the child of a multithreaded parent;
// glibc (every deployment target here) additionally makes malloc
// fork-safe via its internal atfork handlers, which these children rely
// on. The master bounds the bootstrap wait (ForkedEndpoint::wait_hello)
// so even a wedged child fails the run instead of hanging it.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include <sys/types.h>

#include "matrix/tuning.hpp"
#include "runtime/buffer_pool.hpp"
#include "runtime/serde.hpp"
#include "runtime/transport.hpp"

namespace hmxp::runtime {

// ---- spawning and the child side --------------------------------------------

/// Forks one worker process; returns its pid in the master and 0 in the
/// child. The child first closes every fd in `foreign_fds` (negative
/// entries are skipped) -- ends that belong to the master or to other
/// workers, so a dead worker's socket reads as EOF and no stray copy
/// pins a socket open -- and arms PR_SET_PDEATHSIG, so an orphaned
/// worker never outlives a crashed master.
pid_t fork_worker(const std::vector<int>& foreign_fds);

/// One socketpair(2) per worker, all created before the first fork so
/// each child can close every end that is not its own.
class SocketPairs {
 public:
  explicit SocketPairs(std::size_t count);
  /// Closes every end not yet handed out.
  ~SocketPairs();
  SocketPairs(const SocketPairs&) = delete;
  SocketPairs& operator=(const SocketPairs&) = delete;

  /// Worker `i`'s own end (blocking), for child `i` to serve on.
  int child_end(std::size_t i) const { return child_[i]; }
  /// Every end child `i` must close: all master ends (including those
  /// already handed out) and every other child's end.
  std::vector<int> foreign_to(std::size_t i) const;
  /// In the master, once child `i` is forked: closes the child's end and
  /// hands over the master's end, nonblocking, to the caller.
  int release_master(std::size_t i);

 private:
  std::vector<int> master_;
  std::vector<int> child_;
  std::vector<bool> released_;
};

/// The child's entry after fork_worker: installs `config` (the kernel
/// configuration the master resolved -- and possibly autotuned -- before
/// forking), runs `serve` and _exits 0 once it returns (the master said
/// goodbye). An exception out of `serve` is the worker's death: `notify`
/// gets its what() text to ship as a kError notice (best effort -- if
/// the socket is gone the EOF alone carries the news) and the child
/// _exits 2.
[[noreturn]] void run_worker_child(
    const matrix::KernelConfig& config,
    const std::function<void(BufferPool&)>& serve,
    const std::function<void(const std::string&)>& notify);

/// Writes a kError frame carrying `what` to `fd`; throws like
/// write_exact.
void send_error_notice(int fd, const std::string& what);

/// Child half of the handshake: sends this worker's hello (identity
/// `token` plus the kernel configuration it actually runs, re-read
/// rather than echoed so the master's check is end-to-end) and blocks
/// for the verdict. A hello ack admits (decode_hello validates the
/// master's magic and protocol version, so BOTH sides of a version skew
/// report it by name); a kError carries the rejection. Throws
/// PeerDisconnected when the master closed the connection instead.
void handshake(int fd, std::uint64_t token);

// ---- the master side --------------------------------------------------------

/// Master half of the handshake: owns every worker connection that has
/// not yet proven its identity. Single-threaded like the master loop;
/// endpoints drive it from their bootstrap and re-admission paths.
class Acceptor {
 public:
  /// No listen socket: connections arrive through admit() only (a run
  /// whose workers inherit socketpair ends).
  Acceptor();
  ~Acceptor() { close_all(); }
  Acceptor(const Acceptor&) = delete;
  Acceptor& operator=(const Acceptor&) = delete;

  /// Worker `index`'s identity token: a random per-run base plus the
  /// index, never 0.
  std::uint64_t token(std::size_t index) const { return token_base_ + index; }

  /// Binds a nonblocking listen socket on 127.0.0.1 (kernel-picked
  /// port) for workers to dial -- before the first fork, so the very
  /// first connect can never be refused. Returns the port.
  std::uint16_t listen_loopback();
  /// The listen socket, -1 when there is none; a forked child closes it
  /// (a dangling copy would keep the port alive past the master).
  int listen_fd() const { return listen_fd_; }

  /// Takes a connected nonblocking socket (a socketpair end) whose
  /// hello is still to come, exactly like a freshly accepted dial.
  void admit(int fd);
  /// Accepts queued dials and advances every pending handshake: reads
  /// what arrived, rejects strangers, stages complete hellos by token,
  /// drops connections that closed or ran past their deadline. Never
  /// blocks.
  void poll();
  /// Sleeps until a pending connection or the listen socket has input,
  /// at most `timeout_ms`.
  void wait(int timeout_ms);
  /// Claims the staged connection presenting `token` (its hello in
  /// `*hello`); -1 if none. The fd is nonblocking.
  int take(std::uint64_t token, serde::HelloFrame* hello);
  void close_all() noexcept;

 private:
  struct Pending {
    int fd = -1;
    serde::ByteBuffer rx;
    std::chrono::steady_clock::time_point deadline;
  };
  struct Staged {
    int fd = -1;
    serde::HelloFrame hello;
  };

  bool advance(Pending& conn);

  std::uint64_t token_base_ = 1;
  int listen_fd_ = -1;
  std::vector<Pending> pending_;
  std::vector<Staged> staged_;
};

/// The master's handle on one forked worker: its child process and the
/// socket it reports on, whatever carries the payloads. Owns the sticky
/// death record every fork transport keeps the same way.
class ForkedEndpoint : public Endpoint {
 public:
  ForkedEndpoint(const ForkedEndpoint&) = delete;
  ForkedEndpoint& operator=(const ForkedEndpoint&) = delete;
  ~ForkedEndpoint() override { teardown(); }

  bool failed() const override { return failed_; }
  std::exception_ptr error() const override { return error_; }
  bool killed() const override { return killed_; }
  /// SIGKILLs the child and shuts the socket down both ways.
  void kill() override;
  /// Hands queued results back to `pool` and drops partial input.
  void drain(BufferPool& pool) override;

  /// The socket the worker reports on, for a poll(2) over many
  /// workers; -1 once it is closed or at EOF.
  int event_fd() const { return eof_ ? -1 : fd_; }

  /// Blocks until the worker's hello arrived through `acceptor` and was
  /// adopted, or the worker is known dead: it exited on the launch pad,
  /// booted a divergent kernel configuration, or stayed silent for 30 s
  /// (the fork-from-a-multithreaded-parent hazard, however unlikely
  /// under glibc, must fail the run loudly, never hang it).
  void wait_hello(Acceptor& acceptor);

 protected:
  /// `frame_limit` bounds every inbound frame on the socket.
  ForkedEndpoint(int index, pid_t pid, std::uint64_t token,
                 const serde::HelloFrame& expected_hello,
                 TransportStats* stats, std::uint64_t frame_limit);

  /// Claims this worker's staged connection, if it has one: checks its
  /// kernel configuration, acks the handshake and makes it the
  /// endpoint's socket -- clearing a previous failure, which is how a
  /// reconnected worker is re-admitted. False when there is nothing to
  /// claim or the claim failed.
  bool adopt(Acceptor& acceptor);

  /// Handles one complete inbound frame body other than a kError death
  /// notice, which the pump turns into the worker's failure itself.
  virtual void dispatch(const std::uint8_t* body, std::size_t size) = 0;

  /// Marks the worker dead (sticky; the first reason wins), appending
  /// how the child ended when it already has: the kError text a dying
  /// worker shipped, or its waitpid status for one that died silently.
  void mark_failed(const std::string& reason);
  [[noreturn]] void throw_dead() { std::rethrow_exception(error_); }
  void throw_if_dead() {
    if (failed_) throw_dead();
  }
  std::optional<ResultMessage> pop_result();

  /// Nonblocking absorb: reads everything available, dispatches complete
  /// frames, notes EOF (a failure unless the endpoint is shutting down).
  void pump();
  /// Polls until the socket is readable (or writable, when asked) or
  /// `timeout_ms` passed, then pumps.
  void wait_io(bool want_write = false, int timeout_ms = -1);
  /// Closes the socket and reaps the child -- SIGKILLing it first when
  /// it failed or never finished its handshake, since such a child may
  /// never exit on its own. Idempotent.
  void teardown() noexcept;

  const int index_;
  TransportStats* const stats_;
  int fd_ = -1;
  bool eof_ = false;
  /// Shutting down: results are dropped and EOF is expected.
  bool discarding_ = false;
  std::deque<ResultMessage> results_;

 private:
  bool exited() const;

  pid_t pid_;
  std::uint64_t token_;
  serde::HelloFrame expected_hello_;
  std::uint64_t frame_limit_;
  serde::ByteBuffer rx_;
  std::exception_ptr error_;
  bool failed_ = false;
  bool killed_ = false;
  bool reaped_ = false;
};

}  // namespace hmxp::runtime
