// StreamTransport: the online runtime over one byte stream per worker --
// the paper's star platform, where each worker has a single link to the
// master, rehearsed inside one machine the way the companion report
// runs it over MPI. Every worker is a forked child process (the shared
// lifecycle in runtime/forked_worker.hpp) running the same worker_main
// as a thread worker, over a StreamWorkerPort that reads and writes
// length-prefixed frames (runtime/serde.hpp). A forked worker is REALLY
// isolated: a SIGKILL, an abort, or an OOM kill surfaces to the master
// as a dead stream -- a first-class worker failure the fault-tolerant
// master recovers from exactly like a dead thread.
//
// The two kinds differ only in where a worker's fd comes from:
//
//   * kProcess -- one end of a socketpair(2) created before the fork.
//     The master's end enters the Acceptor as an already-accepted
//     connection; there is no listen socket, so a stream that dies is a
//     worker that died, and try_readmit never finds a rejoin.
//   * kTcp -- a dial to a 127.0.0.1 listen socket the master binds
//     before forking: a real cluster's connection lifecycle. A dropped
//     connection fails the worker like any death (mirror rollback, chunk
//     back to the pending set) while the worker redials and
//     re-handshakes with the SAME token; once the master has recovered
//     it polls Endpoint::try_readmit, claims the staged connection with
//     a fresh credit window, and the worker hot-joins idle.
//
// Backpressure: the channel bound of the thread transport becomes
// explicit buffer credits. The master holds `inbox_capacity` credits
// per worker; every frame it ships consumes one, and the worker returns
// one (a kCredit frame) each time it dequeues a message -- the same
// "pop frees the slot, then the worker computes" timing the bounded
// channel enforces. A master pushing past a worker's buffers therefore
// blocks in Endpoint::send, pumping inbound frames while it waits so a
// worker blocked handing a result back can never deadlock it.
//
// Shutdown is an explicit kGoodbye before the master half-closes: a
// worker ends its stream ONLY at the goodbye, so a bare EOF always means
// the link dropped. A worker that dies on a C++ exception ships a kError
// frame with its what() text, so the master rethrows the real root
// cause; one that dies without unwinding (SIGKILL) just disappears and
// the master synthesizes the cause from its waitpid status.
#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "runtime/executor.hpp"
#include "runtime/forked_worker.hpp"
#include "runtime/serde.hpp"
#include "runtime/socket_util.hpp"
#include "runtime/transport.hpp"
#include "runtime/worker_main.hpp"
#include "util/check.hpp"

namespace hmxp::runtime {

namespace {

using Clock = std::chrono::steady_clock;
using serde::ByteBuffer;
using serde::FrameType;

double seconds_since(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

// ---- child side -------------------------------------------------------------

/// Dials the master's loopback port with a blocking socket, retrying
/// transient failures (including the refusal window while the master's
/// accept queue churns during recovery) under a deadline.
int dial_master(std::uint16_t port) {
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  for (;;) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
      throw std::runtime_error(std::string("socket failed: ") +
                               std::strerror(errno));
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) == 0) {
      set_tcp_nodelay(fd);
      return fd;
    }
    const int saved = errno;
    ::close(fd);
    if (saved == EINTR) continue;
    if (Clock::now() >= deadline)
      throw std::runtime_error(std::string("cannot reach master: ") +
                               std::strerror(saved));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

/// The worker's face of its stream: frame intake with credit return,
/// result frames out. The stream ends ONLY at the master's kGoodbye,
/// which is latched: the worker's cancel lookahead (try_receive) may be
/// the one to read it, and the next receive() must still report the end
/// instead of reading the EOF behind it -- a bare EOF means the link
/// dropped, which a dialed worker answers by redialing.
class StreamWorkerPort final : public WorkerPort {
 public:
  StreamWorkerPort(int fd, BufferPool* pool, std::uint64_t max_frame_bytes)
      : fd_(fd), pool_(pool), max_frame_bytes_(max_frame_bytes) {}

  std::optional<WorkerMessage> receive() override {
    if (goodbye_) return std::nullopt;
    if (!read_frame(fd_, body_, max_frame_bytes_))
      throw PeerDisconnected("connection closed without a goodbye");
    if (serde::frame_type(body_.data(), body_.size()) == FrameType::kGoodbye) {
      goodbye_ = true;
      return std::nullopt;
    }

    // Return the inbox credit BEFORE computing: the slot is free the
    // moment the message is dequeued, exactly like a channel pop.
    tx_.clear();
    serde::encode_control(FrameType::kCredit, tx_);
    write_exact(fd_, tx_.data(), tx_.size());

    switch (serde::frame_type(body_.data(), body_.size())) {
      case FrameType::kChunk:
        return WorkerMessage(
            serde::decode_chunk(body_.data(), body_.size(), *pool_));
      case FrameType::kOperand:
        return WorkerMessage(
            serde::decode_operand(body_.data(), body_.size(), *pool_));
      case FrameType::kCancel:
        return WorkerMessage(
            serde::decode_cancel(body_.data(), body_.size()));
      default:
        throw std::runtime_error("unexpected inbound frame type");
    }
  }

  std::optional<WorkerMessage> try_receive() override {
    // Only commit to the blocking read when a frame has started to
    // arrive; a partially written frame completes in microseconds (the
    // master writes frames whole).
    if (goodbye_) return std::nullopt;
    pollfd probe{fd_, POLLIN, 0};
    if (::poll(&probe, 1, 0) != 1 || (probe.revents & POLLIN) == 0)
      return std::nullopt;
    return receive();
  }

  void send(ResultMessage result) override {
    tx_.clear();
    serde::encode_result(result, tx_);
    // Payload storage recycles in the worker's own pool.
    result.c.release_to(*pool_);
    write_exact(fd_, tx_.data(), tx_.size());
  }

 private:
  int fd_;
  BufferPool* pool_;
  std::uint64_t max_frame_bytes_;
  ByteBuffer body_;
  ByteBuffer tx_;
  bool goodbye_ = false;
};

/// Child-process entry. `fd` is the inherited socketpair end (kProcess)
/// or -1 (kTcp: dial `port`). Handshakes, then serves until the
/// goodbye. A dropped link (PeerDisconnected from either direction, or
/// a TcpDisconnectFault a fault hook injected) makes a dialed worker
/// drop the socket and redial -- restarting its protocol state from
/// scratch is correct because the master rolled back everything it had
/// in flight when it saw the death; if the master is really gone,
/// dial_master's deadline (or PDEATHSIG) ends the loop. A socketpair
/// cannot be re-made, so there the loss is the worker's death.
[[noreturn]] void run_child(int fd, std::uint16_t port, std::uint64_t token,
                            const WorkerContext& context,
                            const matrix::KernelConfig& config,
                            std::uint64_t max_frame_bytes) {
  run_worker_child(
      config,
      [&](BufferPool& pool) {
        for (;;) {
          if (fd < 0) fd = dial_master(port);
          try {
            handshake(fd, token);
            StreamWorkerPort worker_port(fd, &pool, max_frame_bytes);
            worker_main(context, worker_port, pool);
            return;  // the master said goodbye
          } catch (const PeerDisconnected&) {
            if (port == 0) throw;
          }
          ::close(fd);
          fd = -1;
        }
      },
      [&](const std::string& what) {
        if (fd >= 0) send_error_notice(fd, what);
      });
}

// ---- master side ------------------------------------------------------------

class StreamEndpoint final : public ForkedEndpoint {
 public:
  StreamEndpoint(int index, pid_t pid, std::uint64_t token,
                 std::size_t credits, const serde::HelloFrame& expected_hello,
                 BufferPool* pool, TransportStats* stats,
                 std::uint64_t max_frame_bytes, Acceptor* acceptor)
      : ForkedEndpoint(index, pid, token, expected_hello, stats,
                       max_frame_bytes),
        capacity_(credits),
        credits_(credits),
        pool_(pool),
        acceptor_(acceptor) {}

  // ----- Endpoint -----
  void send(WorkerMessage message) override {
    throw_if_dead();
    const auto serde_begin = Clock::now();
    tx_.clear();
    if (auto* chunk = std::get_if<ChunkMessage>(&message)) {
      serde::encode_chunk(*chunk, tx_);
      chunk->c.release_to(*pool_);
    } else if (auto* operands = std::get_if<OperandMessage>(&message)) {
      serde::encode_operand(*operands, tx_);
      operands->a.release_to(*pool_);
      operands->b.release_to(*pool_);
    } else {
      serde::encode_cancel(std::get<CancelMessage>(message), tx_);
    }
    stats_->serde_seconds += seconds_since(serde_begin);

    // The bounded-inbox rule: no credit, no send. Pump while waiting so
    // results and credits keep flowing (and death is noticed).
    while (credits_ == 0 && !failed()) wait_io();
    throw_if_dead();
    --credits_;
    write_frame();
    ++stats_->messages_sent;
    stats_->bytes_sent += tx_.size();
  }

  bool can_send() const override { return credits_ > 0; }

  std::optional<ResultMessage> try_recv() override {
    if (results_.empty() && !failed()) pump();
    return pop_result();
  }

  std::optional<ResultMessage> recv() override {
    pump();
    while (results_.empty() && !failed()) wait_io();
    return pop_result();
  }

  /// Re-admission: the master fully recovered from this worker's death
  /// and asks whether it came back -- claims the staged reconnection,
  /// if the worker redialed by now, with a fresh credit window.
  bool try_readmit() override {
    if (!failed() || killed()) return false;
    acceptor_->poll();
    if (!adopt(*acceptor_)) return false;
    credits_ = capacity_;
    return true;
  }

  // ----- transport-internal -----
  /// Graceful stop: an explicit goodbye (so the worker KNOWS this is
  /// not a dead link and must not redial), then half-close.
  void begin_shutdown() noexcept {
    discarding_ = true;
    if (fd_ >= 0 && !killed() && !failed()) {
      try {
        tx_.clear();
        serde::encode_control(FrameType::kGoodbye, tx_);
        write_frame();
      } catch (...) {
        // A dying connection on the way out carries the news as EOF.
      }
    }
    if (fd_ >= 0 && !killed()) ::shutdown(fd_, SHUT_WR);
  }

  /// Drains the socket to EOF (unblocking a child mid-result), reaps
  /// the child and closes the fd. Idempotent.
  void finish_shutdown() noexcept {
    discarding_ = true;
    if (fd_ >= 0) {
      try {
        while (!eof_ && !failed()) wait_io();
      } catch (...) {
        // Corrupt trailing frames on a teardown path are ignorable.
      }
    }
    teardown();
  }

 private:
  /// Ships the prepared frame, pumping inbound traffic whenever the
  /// socket back-pressures (the child must be able to hand a result
  /// back while the master is mid-send, or both would block forever).
  void write_frame() {
    std::size_t done = 0;
    while (done < tx_.size()) {
      const ssize_t n = ::send(fd_, tx_.data() + done, tx_.size() - done,
                               MSG_NOSIGNAL);
      if (n > 0) {
        done += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        wait_io(/*want_write=*/true);
        throw_if_dead();
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      mark_failed(std::string("send failed: ") + std::strerror(errno));
      throw_dead();
    }
  }

  void dispatch(const std::uint8_t* body, std::size_t size) override {
    switch (serde::frame_type(body, size)) {
      case FrameType::kCredit:
        ++credits_;
        break;
      case FrameType::kResult: {
        if (discarding_) break;
        const auto serde_begin = Clock::now();
        results_.push_back(serde::decode_result(body, size, *pool_));
        stats_->serde_seconds += seconds_since(serde_begin);
        break;
      }
      default:
        // Hellos never ride an admitted connection -- the Acceptor owns
        // every handshake -- so one here is as corrupt as any stranger.
        mark_failed("unexpected frame from worker");
        break;
    }
  }

  std::size_t capacity_;
  std::size_t credits_;
  BufferPool* pool_;
  Acceptor* acceptor_;
  ByteBuffer tx_;
};

class StreamTransport final : public Transport {
 public:
  StreamTransport(TransportKind kind, int workers,
                  std::size_t inbox_capacity, const ExecutorOptions& options,
                  Clock::time_point run_begin, BufferPool* pool,
                  std::size_t max_payload_doubles)
      : kind_(kind), endpoint_stats_(static_cast<std::size_t>(workers)) {
    // Capture the kernel configuration ONCE, in the master, before any
    // fork: the explicit pins (force_kernel_tier / --kernel,
    // force_micro_kernel_variant), the tier/variant the dispatch
    // resolved, and the tuned BlockingParams. current_kernel_config()
    // RESOLVES the blocking -- running the autotune search now, in the
    // master -- so every child inherits a settled winner and re-asserts
    // exactly this state instead of re-tuning behind the fork.
    const matrix::KernelConfig config = matrix::current_kernel_config();
    const serde::HelloFrame expected_hello = serde::local_hello(config);
    const std::uint64_t max_frame_bytes =
        serde::max_frame_bytes_for(max_payload_doubles);

    const auto count = static_cast<std::size_t>(workers);
    const bool dialed = kind == TransportKind::kTcp;
    const std::uint16_t port = dialed ? acceptor_.listen_loopback() : 0;
    SocketPairs pairs(dialed ? 0 : count);
    try {
      endpoints_.reserve(count);
      for (std::size_t i = 0; i < count; ++i) {
        const WorkerContext context =
            make_worker_context(options, static_cast<int>(i), run_begin);
        const std::uint64_t token = acceptor_.token(i);
        std::vector<int> foreign = pairs.foreign_to(i);
        foreign.push_back(acceptor_.listen_fd());
        const pid_t pid = fork_worker(foreign);
        if (pid == 0)
          run_child(dialed ? -1 : pairs.child_end(i), port, token, context,
                    config, max_frame_bytes);  // never returns
        if (!dialed) acceptor_.admit(pairs.release_master(i));
        endpoints_.push_back(std::make_unique<StreamEndpoint>(
            static_cast<int>(i), pid, token, inbox_capacity, expected_hello,
            pool, &endpoint_stats_[i], max_frame_bytes, &acceptor_));
      }
    } catch (...) {
      shutdown();
      throw;
    }
    // Synchronize on every worker's handshake: launch-pad deaths,
    // version skews and kernel-configuration mismatches surface here,
    // not mid-run.
    for (auto& endpoint : endpoints_) endpoint->wait_hello(acceptor_);
  }

  ~StreamTransport() override { shutdown(); }

  TransportKind kind() const override { return kind_; }
  int worker_count() const override {
    return static_cast<int>(endpoints_.size());
  }
  Endpoint& endpoint(int worker) override {
    HMXP_REQUIRE(worker >= 0 &&
                     static_cast<std::size_t>(worker) < endpoints_.size(),
                 "worker index out of range");
    return *endpoints_[static_cast<std::size_t>(worker)];
  }

  /// One poll(2) over the workers' sockets: a credit, a result, an
  /// error notice or an EOF all arrive as readable bytes, and the pump
  /// in the master's last try_recv left none unread. Whichever arrives
  /// ends the wait; the caller's next try_recv pumps it.
  void wait_any(const std::vector<Await>& awaits,
                std::chrono::milliseconds timeout) override {
    std::vector<pollfd> fds;
    fds.reserve(awaits.size());
    for (const Await& await : awaits) {
      const int fd =
          endpoints_[static_cast<std::size_t>(await.worker)]->event_fd();
      if (fd >= 0) fds.push_back(pollfd{fd, POLLIN, 0});
    }
    if (fds.empty()) return;
    ::poll(fds.data(), fds.size(), static_cast<int>(timeout.count()));
  }

  void shutdown() noexcept override {
    for (auto& endpoint : endpoints_) endpoint->begin_shutdown();
    for (auto& endpoint : endpoints_) endpoint->finish_shutdown();
    acceptor_.close_all();
  }

  TransportStats stats() const override {
    TransportStats total;
    for (const TransportStats& slot : endpoint_stats_) total += slot;
    return total;
  }

 private:
  TransportKind kind_;
  // Declared before the endpoints, which hold pointers to both. One
  // stats slot per endpoint (each writes only its own; stable
  // addresses, never resized) so concurrent fleet jobs never race on a
  // counter.
  Acceptor acceptor_;
  std::vector<TransportStats> endpoint_stats_;
  std::vector<std::unique_ptr<StreamEndpoint>> endpoints_;
};

}  // namespace

std::unique_ptr<Transport> make_stream_transport(
    TransportKind kind, int workers, std::size_t inbox_capacity,
    const ExecutorOptions& options,
    std::chrono::steady_clock::time_point run_begin, BufferPool* pool,
    std::size_t max_payload_doubles) {
  return std::make_unique<StreamTransport>(kind, workers, inbox_capacity,
                                           options, run_begin, pool,
                                           max_payload_doubles);
}

}  // namespace hmxp::runtime
