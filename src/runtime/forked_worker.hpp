// The forked-worker lifecycle: everything about a worker that is a
// child PROCESS, whichever pipe carries its frames (the forked
// transport, forked_transport.cpp, runs kProcess, kTcp and kShm on it):
//
//   * spawning -- fork_worker forks with fd hygiene and PR_SET_PDEATHSIG,
//     SocketPairs pre-creates the per-worker socketpair ends a child
//     inherits, and run_worker_child is the child's entry: install the
//     master's kernel configuration, serve, ship a kError notice if the
//     worker dies of an exception, _exit;
//   * the handshake -- one hello -> ack exchange on every worker's
//     socket, over blocking I/O (runtime/socket_util.hpp). The child's
//     hello carries its identity token and the kernel configuration it
//     ACTUALLY runs; it then blocks for the master's ack. On the master,
//     an Acceptor reads hellos from connections it accepted on a
//     loopback listen socket or was handed as socketpair ends, under a
//     tight size bound and a deadline, rejects strangers (bad magic,
//     wrong protocol version) with a kError naming both versions, and
//     stages the rest by token until the owning endpoint claims them.
//
// After the handshake the socket stays open for the worker's life: it
// is the data pipe of kProcess and kTcp, and on kShm the death channel
// that carries a dying worker's error notice and the EOF of a SIGKILL.
//
// NOTE on fork without exec: the child deliberately inherits the
// master's address space (options, schedules, fault_hook closures and
// the kernel-dispatch statics all come along for free -- an exec'ing
// transport could ship none of them). POSIX only blesses
// async-signal-safe calls in the child of a multithreaded parent;
// glibc (every deployment target here) additionally makes malloc
// fork-safe via its internal atfork handlers, which these children rely
// on. The master bounds the bootstrap wait (30 s for the hello) so even
// a wedged child fails the run instead of hanging it.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <sys/types.h>

#include "matrix/tuning.hpp"
#include "runtime/buffer_pool.hpp"
#include "runtime/serde.hpp"

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
/// configuration the master captured before forking), runs `serve` and
/// _exits 0 once it returns (the master said goodbye). An exception out
/// of `serve` is the worker's death: `notify` gets its what() text to
/// ship as a kError notice (best effort -- if the socket is gone the
/// EOF alone carries the news) and the child _exits 2.
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
    serde::FrameSplitter rx;
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

}  // namespace hmxp::runtime
