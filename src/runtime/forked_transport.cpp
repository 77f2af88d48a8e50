// The forked transport: kProcess, kTcp and kShm. Each worker is a forked
// child process (the lifecycle in runtime/forked_worker.hpp) running the
// same worker_main as a thread worker, over a PipeWorkerPort that reads
// and writes frames (runtime/serde.hpp) through one BytePipe
// (runtime/byte_pipe.hpp) -- the paper's star, where each worker has a
// single link to the master. The kinds differ only in the pipe and in
// where payloads live: a socketpair end or a dialed loopback TCP
// connection with payloads inline, or an shm ring pair whose frames
// name SharedArena slots. A forked worker is REALLY isolated: a SIGKILL,
// an abort or an OOM kill is a first-class worker failure the
// fault-tolerant master recovers from like a dead thread. A dropped TCP
// connection fails the worker the same way while it redials with the
// SAME token; once the master has recovered, Endpoint::try_readmit
// claims the staged connection and the worker hot-joins.
//
// Backpressure is the same on every pipe: the master holds
// `inbox_capacity` credits per worker, every frame it ships consumes
// one, and the worker returns one (a kCredit frame) each time it
// dequeues a message, before it computes -- a bounded channel's pop. A
// master pushing past a worker's buffers blocks in Endpoint::send,
// pumping inbound frames while it waits so a worker blocked handing a
// result back can never deadlock it. On shm, arena capacity is a second
// rule: 16 slots per worker against a worst case of ~7 in flight, and a
// master that outruns them blocks while it packs, pumping, until a slot
// frees. Slots are tagged with the worker they are bound for, so
// Endpoint::drain reclaims a dead child's slots exactly -- one it held
// mid-compute included -- and fault-tolerant reruns never leak them.
//
// Death has two channels on shm: frames travel the rings, while a dying
// worker's error notice and the EOF of a SIGKILL'd child arrive on the
// socket it handshook on. On a socket pipe both share the fd. Shutdown
// is an explicit kGoodbye before the master half-closes: a worker ends
// its stream ONLY at the goodbye, so a bare EOF always means the link
// dropped. A worker that dies on a C++ exception ships a kError frame
// with its what() text, so the master rethrows the real root cause; one
// that dies without unwinding just disappears and the master
// synthesizes the cause from its waitpid status.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <deque>
#include <memory>
#include <new>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "runtime/byte_pipe.hpp"
#include "runtime/executor.hpp"
#include "runtime/forked_worker.hpp"
#include "runtime/serde.hpp"
#include "runtime/shared_arena.hpp"
#include "runtime/socket_util.hpp"
#include "runtime/transport.hpp"
#include "runtime/worker_main.hpp"
#include "util/check.hpp"

namespace hmxp::runtime {

namespace {

using Clock = std::chrono::steady_clock;
using Seconds = std::chrono::duration<double>;
using serde::ByteBuffer;
using serde::FrameType;

/// Arena slots per worker. Worst case per worker is ~7 outstanding
/// (the resident C slot plus a full credit window of operand pairs);
/// 16 leaves slack for results in flight, and MAP_NORESERVE means
/// untouched slots never cost physical memory.
constexpr std::size_t kSlotsPerWorker = 16;

/// Bound on every park of the master. A SIGKILL'd child never writes or
/// rings again, so on shm the bound is what lets the master's next look
/// at the socket find its EOF.
constexpr int kParkMs = 10;
/// Bound on a worker's parks: only a belt, since PR_SET_PDEATHSIG ends a
/// worker whose master died.
constexpr int kWorkerParkMs = 100;

/// The MAP_SHARED block holding every worker's ring pair. Created
/// before the first fork, like the arena and the ack board, so parent
/// and children address the same pages.
class SharedRingBlock {
 public:
  explicit SharedRingBlock(std::size_t workers)
      : bytes_(std::max<std::size_t>(workers, 1) * sizeof(RingChannel)) {
    int flags = MAP_SHARED | MAP_ANONYMOUS;
#if defined(MAP_POPULATE)
    // Prefault the whole block in one syscall: cheaper than trapping
    // on every ring page as the cursors sweep across it mid-run.
    flags |= MAP_POPULATE;
#endif
    map_ = ::mmap(nullptr, bytes_, PROT_READ | PROT_WRITE, flags, -1, 0);
    HMXP_CHECK(map_ != MAP_FAILED, "ring block mmap failed");
    // Default-init, not value-init: the cursors' member initializers
    // run, while the data arrays stay untouched -- anonymous pages are
    // already zero, and zeroing kRingBytes per ring here would fault
    // and dirty every page twice.
    for (std::size_t i = 0; i < workers; ++i) new (channel(i)) RingChannel;
  }
  ~SharedRingBlock() {
    if (map_ != nullptr && map_ != MAP_FAILED) ::munmap(map_, bytes_);
  }
  SharedRingBlock(const SharedRingBlock&) = delete;
  SharedRingBlock& operator=(const SharedRingBlock&) = delete;

  RingChannel* channel(std::size_t i) const {
    return static_cast<RingChannel*>(map_) + i;
  }

 private:
  std::size_t bytes_;
  void* map_ = nullptr;
};

/// What the endpoints of one transport share, fixed before the first
/// fork. The shm members stay null on the socket kinds.
struct Plumbing {
  std::size_t capacity = 0;  // inbox credits per worker
  serde::HelloFrame expected_hello;
  std::uint64_t frame_limit = 0;
  BufferPool* pool = nullptr;  // where inline results decode
  Acceptor* acceptor = nullptr;
  SharedArena* arena = nullptr;  // the payload home
  SharedAckBoard* board = nullptr;
  SharedRingBlock* rings = nullptr;  // the data pipes
};

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

/// The worker's face of its pipe: frame intake with credit return,
/// results out. Every pipe is read through one buffered FrameSplitter,
/// so one read drains every frame that arrived, and only whole frames
/// are decoded -- the cancel lookahead (try_receive) may buffer the head
/// of a frame still arriving. Each dequeued message sends one kCredit
/// frame back BEFORE the worker computes: the inbox slot is free the
/// moment the message is dequeued, exactly like a channel pop. The
/// inbound stream ends ONLY at the master's kGoodbye, which is latched:
/// the lookahead may be the one to read it, and the next receive() must
/// still report the end instead of reading the EOF behind it -- a bare
/// EOF means the link dropped, which a dialed worker answers by
/// redialing.
class PipeWorkerPort final : public WorkerPort {
 public:
  PipeWorkerPort(BytePipe& pipe, BufferPool& pool, SharedArena* arena,
                 std::uint64_t frame_limit)
      : pipe_(pipe), pool_(pool), arena_(arena), rx_(frame_limit) {
    serde::encode_control(FrameType::kCredit, credit_);
  }

  std::optional<WorkerMessage> receive() override {
    std::optional<std::span<const std::uint8_t>> frame;
    while (!goodbye_ && !(frame = next_frame()))
      pipe_.park(/*writable=*/false, kWorkerParkMs);
    return take(frame);
  }

  std::optional<WorkerMessage> try_receive() override {
    if (goodbye_) return std::nullopt;
    return take(next_frame());
  }

  void send(ResultMessage result) override {
    tx_.clear();
    serde::encode_result(result, tx_);
    write(tx_);
    // The frame is whole in the pipe: an arena C slot is the master's
    // now, inline storage recycles in the worker's own pool. Not before
    // the write, so an unwind mid-send still releases the slot (the
    // master's crash reclamation tolerates the benign race).
    result.c.in_arena() ? result.c.detach() : result.c.release_to(pool_);
  }

 private:
  /// The next whole frame, reading the pipe only when none is buffered.
  std::optional<std::span<const std::uint8_t>> next_frame() {
    if (auto frame = rx_.next()) return frame;
    const bool open = pipe_.read_into(rx_);
    if (auto frame = rx_.next()) return frame;
    if (!open) throw PeerDisconnected("connection closed without a goodbye");
    return std::nullopt;
  }

  std::optional<WorkerMessage> take(
      std::optional<std::span<const std::uint8_t>> frame) {
    if (!frame) return std::nullopt;
    auto message =
        serde::decode_inbound(frame->data(), frame->size(), pool_, arena_);
    if (!message) {
      goodbye_ = true;
      return std::nullopt;
    }
    write(credit_);
    return message;
  }

  /// Writes `frame` whole. While the pipe is full, whatever arrives is
  /// buffered -- not dequeued, so no credit goes back for it -- so the
  /// master can always finish a write this worker waits behind.
  void write(const ByteBuffer& frame) {
    for (std::size_t done = 0;;) {
      done += pipe_.write_some(frame.data() + done, frame.size() - done);
      if (done == frame.size()) return;
      pipe_.park(/*writable=*/true, kWorkerParkMs);
      (void)pipe_.read_into(rx_);  // an EOF is next_frame's to report
    }
  }

  BytePipe& pipe_;
  BufferPool& pool_;
  SharedArena* arena_;
  serde::FrameSplitter rx_;
  ByteBuffer tx_;
  ByteBuffer credit_;  // one encoded kCredit frame
  bool goodbye_ = false;
};

// ---- master side ------------------------------------------------------------

/// The master's handle on one forked worker: its child process, the
/// socket it connected on, and its data pipe -- that socket, or its ring
/// pair on shm. Owns the sticky death record.
class ForkedEndpoint final : public Endpoint {
 public:
  ForkedEndpoint(int index, pid_t pid, std::uint64_t token,
                 const Plumbing& plumbing, TransportStats* stats)
      : index_(index),
        pid_(pid),
        token_(token),
        plumbing_(plumbing),
        stats_(stats),
        credits_(plumbing.capacity),
        rx_(plumbing.frame_limit),
        notices_(plumbing.frame_limit) {
    if (plumbing.rings != nullptr) {
      RingChannel* channel = plumbing.rings->channel(worker());
      rings_.emplace(channel->outbox, channel->inbox);
    }
  }
  ForkedEndpoint(const ForkedEndpoint&) = delete;
  ForkedEndpoint& operator=(const ForkedEndpoint&) = delete;
  ~ForkedEndpoint() override { teardown(); }

  // ----- Endpoint -----
  void send(WorkerMessage message) override {
    throw_if_dead();
    // The bounded-inbox rule: no credit, no send. Pump while waiting so
    // results and credits keep flowing (and death is noticed).
    while (credits_ == 0 && !failed_) wait_io();
    throw_if_dead();
    // The payload home is the one shm-specific step: each lent window
    // moves into an arena slot, the only copy it ever sees, and the
    // frame names the slot. On a socket the encoder writes it inline.
    std::size_t zero_copied = 0;
    if (plumbing_.arena != nullptr)
      for_each_payload(message, [&](Payload& payload) {
        payload = pack(payload);
        zero_copied += payload.size() * sizeof(double);
      });
    const auto begin = Clock::now();
    tx_.clear();
    serde::encode(message, tx_);
    stats_->serde_seconds += Seconds(Clock::now() - begin).count();
    // Let go of every payload BEFORE the frame goes out: once its last
    // byte lands, the worker may use and release a slot at any moment.
    // If it dies with the frame unread, drain()'s owner-tag sweep
    // reclaims the slots. A lent window returns its loan.
    for_each_payload(message, [](Payload& payload) { payload.detach(); });
    --credits_;
    write_frame();
    ++stats_->messages_sent;
    stats_->bytes_sent += tx_.size();
    stats_->bytes_zero_copied += zero_copied;
  }

  /// As fresh as the master's last pump: credits arrive as frames.
  bool can_send() const override { return credits_ > 0; }

  std::optional<ResultMessage> try_recv() override {
    if (results_.empty() && !failed_) pump();
    return pop_result();
  }

  std::optional<ResultMessage> recv() override {
    pump();
    while (results_.empty() && !failed_) wait_io();
    return pop_result();
  }

  bool failed() const override { return failed_; }
  std::exception_ptr error() const override { return error_; }
  bool killed() const override { return killed_; }

  /// SIGKILLs the child and shuts the socket down both ways.
  void kill() override {
    if (killed_) return;
    killed_ = true;
    if (pid_ > 0 && !reaped_) ::kill(pid_, SIGKILL);
    if (socket_.fd() >= 0) ::shutdown(socket_.fd(), SHUT_RDWR);
  }

  /// Hands queued results back to `pool` and drops partial input. On
  /// shm, every slot still TAGGED with this worker -- inbox messages it
  /// never dequeued, the chunk it was computing into when the SIGKILL
  /// landed, a result it wrote only part of -- is swept back in one
  /// pass; the rings are left untouched and never read again, since
  /// their frames name slots the sweep reclaimed. The caller has
  /// already released any pending result it took from this endpoint, so
  /// the sweep cannot double-free a live slot.
  void drain(BufferPool& pool) override {
    drained_ = true;
    for (ResultMessage& result : results_) result.c.release_to(pool);
    results_.clear();
    rx_.clear();
    if (plumbing_.arena != nullptr)
      plumbing_.arena->release_all_owned_by(static_cast<std::uint32_t>(index_));
  }

  /// Re-admission: the master fully recovered from this worker's death
  /// and asks whether it came back -- claims the staged reconnection,
  /// if the worker redialed by now (only a kTcp worker can).
  bool try_readmit() override {
    if (!failed_ || killed_) return false;
    plumbing_.acceptor->poll();
    return adopt();
  }

  // ----- transport-internal -----
  /// The socket, for a poll(2) over many workers; -1 once it is closed
  /// or at EOF.
  int event_fd() const { return eof_ ? -1 : socket_.fd(); }

  /// Shm: whether `await` holds as far as shared memory tells -- bytes
  /// in the outbox, a queued result or a credit in hand, a death, or a
  /// raised rx hint.
  bool holds(const Await& await) const {
    return plumbing_.rings->channel(worker())->outbox.readable() ||
           (await.result ? !results_.empty() : credits_ > 0) || failed_ ||
           plumbing_.board->rx_hint(worker());
  }

  /// Blocks until the worker's hello arrived and was adopted, or the
  /// worker is known dead: it exited on the launch pad, booted a
  /// divergent kernel configuration, or stayed silent for 30 s (the
  /// fork-from-a-multithreaded-parent hazard, however unlikely under
  /// glibc, must fail the run loudly, never hang it).
  void wait_hello() {
    Acceptor& acceptor = *plumbing_.acceptor;
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (socket_.fd() < 0 && !failed_) {
      acceptor.poll();
      if (adopt()) return;
      if (exited()) {
        mark_failed("exited before its handshake");
      } else if (Clock::now() >= deadline) {
        mark_failed("no bootstrap hello within 30s");
      } else {
        acceptor.wait(/*timeout_ms=*/10);
      }
    }
  }

  /// Graceful stop: an explicit goodbye (so the worker KNOWS this is
  /// not a dead link and must not redial), then half-close.
  void begin_shutdown() noexcept {
    discarding_ = true;
    if (socket_.fd() >= 0 && !killed_ && !failed_) {
      try {
        tx_.clear();
        serde::encode_control(FrameType::kGoodbye, tx_);
        write_frame();
      } catch (...) {
        // A dying worker on the way out carries the news as EOF.
      }
    }
    if (socket_.fd() >= 0 && !killed_) ::shutdown(socket_.fd(), SHUT_WR);
  }

  /// Waits for the worker's EOF -- pumping, so a worker blocked writing
  /// a result can finish and exit -- then reaps the child and closes
  /// the socket. Idempotent.
  void finish_shutdown() noexcept {
    discarding_ = true;
    try {
      while (socket_.fd() >= 0 && !eof_ && !failed_) {
        socket_.park(/*writable=*/false, kParkMs);
        pump(/*notices=*/true);
      }
    } catch (...) {
      // Corrupt trailing frames on a teardown path are ignorable.
    }
    teardown();
  }

 private:
  std::size_t worker() const { return static_cast<std::size_t>(index_); }
  [[noreturn]] void throw_dead() { std::rethrow_exception(error_); }
  void throw_if_dead() {
    if (failed_) throw_dead();
  }
  /// The data pipe.
  BytePipe& pipe() {
    return rings_ ? static_cast<BytePipe&>(*rings_) : socket_;
  }

  /// Claims this worker's staged connection, if it has one: checks its
  /// kernel configuration, acks the handshake and makes it the
  /// endpoint's socket -- with a full credit window, clearing a
  /// previous failure, which is how a reconnected worker is re-admitted.
  /// False when there is nothing to claim or the claim failed.
  bool adopt() {
    serde::HelloFrame hello;
    const int fd = plumbing_.acceptor->take(token_, &hello);
    if (fd < 0) return false;
    // Identity and resource fields legitimately differ per host; the
    // kernel configuration must be the master's, or the worker would
    // silently compute with different tile timings.
    if (!hello.same_kernel_config(plumbing_.expected_hello)) {
      ::close(fd);
      mark_failed(
          "booted with a divergent kernel configuration "
          "(tier/micro-kernel/blocking)");
      return false;
    }
    serde::HelloFrame ack = plumbing_.expected_hello;
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
    if (socket_.fd() >= 0) ::close(socket_.fd());
    socket_ = SocketPipe(fd);
    rx_.clear();
    notices_.clear();
    credits_ = plumbing_.capacity;
    eof_ = failed_ = drained_ = false;
    error_ = nullptr;
    return true;
  }

  /// Copies `window` into an arena slot tagged with this worker: the
  /// worker reads it where the master put it. Waits (pumping, so death
  /// and results keep flowing) while the arena is saturated -- a slot
  /// frees through worker progress, a shared-memory store no frame
  /// announces.
  Payload pack(const Payload& window) {
    SharedArena& arena = *plumbing_.arena;
    HMXP_CHECK(window.size() <= arena.slot_doubles(),
               "payload exceeds the arena slot size");
    for (;;) {
      if (auto slot = arena.try_acquire(static_cast<std::uint32_t>(index_))) {
        window.copy_to(slot->data);
        return Payload::arena_view(&arena, slot->index, slot->data,
                                   window.size());
      }
      throw_if_dead();
      wait_io(/*writable=*/false, /*timeout_ms=*/1);
    }
  }

  /// Ships the frame in tx_, pumping inbound traffic whenever the pipe
  /// is full (the worker must be able to hand a result back while the
  /// master is mid-send, or both would block forever). A frame longer
  /// than a ring goes in parts, as the worker reads them.
  void write_frame() {
    for (std::size_t done = 0;;) {
      try {
        done += pipe().write_some(tx_.data() + done, tx_.size() - done);
      } catch (const std::exception& error) {
        mark_failed(std::string("send failed: ") + error.what());
        throw_dead();
      }
      if (done == tx_.size()) return;
      wait_io(/*writable=*/true);
      throw_if_dead();
    }
  }

  /// Parks on the data pipe until it is readable (or writable, when
  /// asked) or `timeout_ms` passed, then pumps.
  void wait_io(bool writable = false, int timeout_ms = kParkMs) {
    if (eof_ || socket_.fd() < 0) {
      if (!failed_) mark_failed("connection closed");
      return;
    }
    try {
      pipe().park(writable, timeout_ms);
    } catch (const std::exception& error) {
      mark_failed(error.what());
      return;
    }
    pump();
  }

  /// Nonblocking absorb of everything the worker sent: whole frames are
  /// handled in order, and an EOF is noted -- a failure unless the
  /// endpoint is shutting down. On shm the rings carry the frames and
  /// the socket only death news, so the socket is read on the worker's
  /// rx hint, once a millisecond, or when `notices` asks; a drained or
  /// killed endpoint never reads its rings again.
  void pump(bool notices = false) {
    if (!rings_) {
      read_socket(rx_);
    } else {
      if (!killed_ && !drained_) {
        rings_->read_into(rx_);
        deliver(rx_);
      }
      const auto now = Clock::now();
      if (notices || plumbing_.board->take_rx_hint(worker()) ||
          now - last_look_ >= std::chrono::milliseconds(1)) {
        last_look_ = now;
        read_socket(notices_);
      }
    }
    if (eof_ && !failed_ && !discarding_)
      mark_failed("exited unexpectedly (connection closed)");
  }

  void read_socket(serde::FrameSplitter& rx) {
    if (eof_ || socket_.fd() < 0) return;
    try {
      eof_ = !socket_.read_into(rx);
    } catch (const std::exception& error) {
      mark_failed(error.what());
      return;
    }
    deliver(rx);
  }

  /// Handles every whole frame buffered in `rx`, in order: a credit is
  /// counted, a result decoded and queued (dropped, its storage
  /// released, while discarding), a death notice fails the worker with
  /// its text. A corrupt frame fails the worker.
  void deliver(serde::FrameSplitter& rx) {
    try {
      // A corrupt length or corrupt content alike fails the worker
      // cleanly: the run recovers under tolerate_faults -- it must never
      // abort a tolerant run, and a corrupt prefix never sizes a buffer.
      while (const auto frame = rx.next()) {
        const std::uint8_t* body = frame->data();
        const std::size_t size = frame->size();
        stats_->bytes_received += serde::kLengthBytes + size;
        switch (serde::frame_type(body, size)) {
          case FrameType::kCredit:
            ++credits_;
            break;
          case FrameType::kResult: {
            const auto begin = Clock::now();
            ResultMessage result = serde::decode_result(
                body, size, *plumbing_.pool, plumbing_.arena);
            stats_->serde_seconds += Seconds(Clock::now() - begin).count();
            if (result.c.in_arena())
              stats_->bytes_zero_copied += result.c.size() * sizeof(double);
            if (discarding_)
              result.c.release_to(*plumbing_.pool);
            else
              results_.push_back(std::move(result));
            break;
          }
          case FrameType::kError:
            // A dying worker's notice carries its own root cause.
            mark_failed(serde::decode_error(body, size));
            break;
          default:
            // Hellos never ride an admitted connection -- the Acceptor
            // owns every handshake -- so one here is as corrupt as any
            // stranger.
            mark_failed("unexpected frame from worker");
        }
      }
    } catch (const std::exception& error) {
      mark_failed(std::string("protocol corruption: ") + error.what());
    }
  }

  std::optional<ResultMessage> pop_result() {
    if (results_.empty()) return std::nullopt;
    ResultMessage result = std::move(results_.front());
    results_.pop_front();
    ++stats_->messages_received;
    return result;
  }

  /// Marks the worker dead (sticky; the first reason wins), appending
  /// how the child ended when it already has: the kError text a dying
  /// worker shipped, or its waitpid status for one that died silently.
  void mark_failed(const std::string& reason) {
    if (failed_) return;
    std::string what =
        "worker process " + std::to_string(index_) + ": " + reason;
    if (pid_ > 0 && !reaped_) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        reaped_ = true;
        if (WIFSIGNALED(status)) {
          what += " (killed by signal " + std::to_string(WTERMSIG(status)) +
                  ")";
        } else if (WIFEXITED(status)) {
          what +=
              " (exit status " + std::to_string(WEXITSTATUS(status)) + ")";
        }
      }
    }
    error_ = std::make_exception_ptr(std::runtime_error(what));
    failed_ = true;
  }

  bool exited() const {
    if (pid_ <= 0 || reaped_) return true;
    siginfo_t info{};
    // WNOWAIT: leave the zombie for mark_failed to reap and classify.
    return ::waitid(P_PID, static_cast<id_t>(pid_), &info,
                    WEXITED | WNOHANG | WNOWAIT) == 0 &&
           info.si_pid == pid_;
  }

  /// Closes the socket and reaps the child -- SIGKILLing it first when
  /// it failed or never finished its handshake, since such a child may
  /// never exit on its own. Idempotent.
  void teardown() noexcept {
    const bool force = failed_ || socket_.fd() < 0;
    // Close first: the EOF is what makes a still-draining child exit, so
    // the blocking reap below cannot hang on a healthy worker.
    if (socket_.fd() >= 0) {
      ::close(socket_.fd());
      socket_ = SocketPipe(-1);
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

  const int index_;
  const pid_t pid_;
  const std::uint64_t token_;
  const Plumbing& plumbing_;
  TransportStats* const stats_;
  SocketPipe socket_{-1};
  std::optional<RingPipe> rings_;  // shm: the data pipe
  std::size_t credits_;
  serde::FrameSplitter rx_;       // the data pipe's bytes
  serde::FrameSplitter notices_;  // shm: the socket's bytes
  ByteBuffer tx_;                 // the frame being sent
  std::deque<ResultMessage> results_;
  std::exception_ptr error_;
  Clock::time_point last_look_{};  // shm: the socket's last read
  bool eof_ = false;
  bool failed_ = false;
  bool killed_ = false;
  bool reaped_ = false;
  bool drained_ = false;
  /// Shutting down: results are dropped and EOF is expected.
  bool discarding_ = false;
};

class ForkedTransport final : public Transport {
 public:
  ForkedTransport(TransportKind kind, int workers,
                  std::size_t inbox_capacity, const ExecutorOptions& options,
                  Clock::time_point run_begin, BufferPool* pool,
                  std::size_t max_payload_doubles)
      // Capture the kernel configuration ONCE, in the master, before any
      // fork: the explicit pins (force_kernel_tier / --kernel,
      // force_micro_kernel_variant), the tier/variant the dispatch
      // resolved, and the BlockingParams. Every child re-asserts exactly
      // this state and echoes it in its hello.
      : kind_(kind),
        config_(matrix::current_kernel_config()),
        // MAP_SHARED pages created before the first fork are the ones
        // every child inherits.
        shm_(kind == TransportKind::kShm
                 ? std::make_unique<Shm>(static_cast<std::size_t>(workers),
                                         max_payload_doubles)
                 : nullptr),
        plumbing_{inbox_capacity,
                  serde::local_hello(config_),
                  serde::max_frame_bytes_for(max_payload_doubles),
                  pool,
                  &acceptor_,
                  shm_ ? &shm_->arena : nullptr,
                  shm_ ? &shm_->board : nullptr,
                  shm_ ? &shm_->rings : nullptr},
        endpoint_stats_(static_cast<std::size_t>(workers)) {
    const auto count = static_cast<std::size_t>(workers);
    const bool dialed = kind == TransportKind::kTcp;
    if (dialed) port_ = acceptor_.listen_loopback();
    SocketPairs pairs(dialed ? 0 : count);
    try {
      endpoints_.reserve(count);
      for (std::size_t i = 0; i < count; ++i) {
        const WorkerContext context =
            make_worker_context(options, static_cast<int>(i), run_begin);
        std::vector<int> foreign = pairs.foreign_to(i);
        foreign.push_back(acceptor_.listen_fd());
        const pid_t pid = fork_worker(foreign);
        if (pid == 0)
          run_child(i, dialed ? -1 : pairs.child_end(i), context);
        if (!dialed) acceptor_.admit(pairs.release_master(i));
        endpoints_.push_back(std::make_unique<ForkedEndpoint>(
            static_cast<int>(i), pid, acceptor_.token(i), plumbing_,
            &endpoint_stats_[i]));
      }
    } catch (...) {
      shutdown();
      throw;
    }
    // Synchronize on every worker's handshake: launch-pad deaths,
    // version skews and kernel-configuration mismatches surface here,
    // not mid-run.
    for (auto& endpoint : endpoints_) endpoint->wait_hello();
  }

  ~ForkedTransport() override { shutdown(); }

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

  void wait_any(const std::vector<Await>& awaits,
                std::chrono::milliseconds timeout) override {
    if (shm_) {
      // The bell is read before the checks: a worker moves its ring
      // before it rings, so an event the checks missed has moved the
      // bell past `seen`. At most kParkMs, like every shm park.
      const std::uint32_t seen = shm_->board.bell_count();
      for (const Await& await : awaits)
        if (endpoints_[static_cast<std::size_t>(await.worker)]->holds(await))
          return;
      shm_->board.wait_bell(
          seen, static_cast<int>(std::min<std::int64_t>(timeout.count(),
                                                        kParkMs)));
      return;
    }
    // One poll(2) over the workers' sockets: a credit, a result, an
    // error notice or an EOF all arrive as readable bytes, and the pump
    // in the master's last try_recv left none unread. Whichever arrives
    // ends the wait; the caller's next try_recv pumps it.
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
    if (shm_ && !leak_recorded_) {
      // Every child is reaped: any slot still held is a reclamation
      // bug the stats must expose (tests assert this is 0). The final
      // sweep keeps the arena's own shutdown assertion quiet so the
      // one loud failure is the test's.
      leaked_slots_ = shm_->arena.in_use();
      shm_->arena.release_all();
      leak_recorded_ = true;
    }
  }

  TransportStats stats() const override {
    TransportStats stats;
    for (const TransportStats& slot : endpoint_stats_) stats += slot;
    if (shm_) {
      const SharedArena::Stats arena = shm_->arena.stats();
      stats.arena_slots = shm_->arena.slot_count();
      stats.arena_peak_slots = arena.peak_in_use;
      stats.arena_leaked_slots =
          leak_recorded_ ? leaked_slots_ : arena.in_use;
    }
    return stats;
  }

 private:
  /// The shm data plane, in MAP_SHARED memory.
  struct Shm {
    Shm(std::size_t workers, std::size_t max_payload_doubles)
        : arena(workers * kSlotsPerWorker,
                std::max<std::size_t>(max_payload_doubles, 1)),
          board(workers),
          rings(workers) {}
    SharedArena arena;
    SharedAckBoard board;
    SharedRingBlock rings;
  };

  /// The one child entry. `fd` is the inherited socketpair end, or -1
  /// to dial port_. Handshakes, then serves its pipe until the goodbye.
  /// A dropped link (PeerDisconnected from either direction, or a
  /// TcpDisconnectFault a fault hook injected) makes a dialed worker
  /// drop the socket and redial -- restarting its protocol state from
  /// scratch is correct because the master rolled back everything it
  /// had in flight when it saw the death; if the master is really gone,
  /// dial_master's deadline (or PDEATHSIG) ends the loop. A socketpair
  /// cannot be re-made, so there the loss is the worker's death. A
  /// death notice on shm also raises the worker's rx hint and rings the
  /// bell, so the master reads it on its next sweep.
  [[noreturn]] void run_child(std::size_t i, int fd,
                              const WorkerContext& context) {
    run_worker_child(
        config_,
        [&](BufferPool& pool) {
          for (;;) {
            if (fd < 0) fd = dial_master(port_);
            try {
              handshake(fd, acceptor_.token(i));
              SocketPipe socket(fd);
              std::optional<RingPipe> rings;
              if (shm_) {
                RingChannel* channel = shm_->rings.channel(i);
                rings.emplace(channel->inbox, channel->outbox, &shm_->board);
              }
              PipeWorkerPort port(
                  rings ? static_cast<BytePipe&>(*rings) : socket, pool,
                  plumbing_.arena, plumbing_.frame_limit);
              worker_main(context, port, pool);
              return;  // the master said goodbye
            } catch (const PeerDisconnected&) {
              if (port_ == 0) throw;
            }
            ::close(fd);
            fd = -1;
          }
        },
        [&](const std::string& what) {
          if (fd >= 0) send_error_notice(fd, what);
          if (shm_) {
            shm_->board.raise_rx_hint(i);
            shm_->board.ring();
          }
        });
  }

  TransportKind kind_;
  matrix::KernelConfig config_;
  std::uint16_t port_ = 0;  // kTcp: where workers dial
  // Declared before the endpoints, which hold pointers into all of
  // these. One stats slot per endpoint (each writes only its own;
  // stable addresses, never resized) so concurrent fleet jobs never
  // race on a counter.
  std::unique_ptr<Shm> shm_;
  Acceptor acceptor_;
  Plumbing plumbing_;
  std::vector<TransportStats> endpoint_stats_;
  std::vector<std::unique_ptr<ForkedEndpoint>> endpoints_;
  std::size_t leaked_slots_ = 0;
  bool leak_recorded_ = false;
};

}  // namespace

std::unique_ptr<Transport> make_forked_transport(
    TransportKind kind, int workers, std::size_t inbox_capacity,
    const ExecutorOptions& options,
    std::chrono::steady_clock::time_point run_begin, BufferPool* pool,
    std::size_t max_payload_doubles) {
  return std::make_unique<ForkedTransport>(kind, workers, inbox_capacity,
                                           options, run_begin, pool,
                                           max_payload_doubles);
}

}  // namespace hmxp::runtime
