// The byte pipe under every forked worker's frames. The paper's star
// platform never asks what a worker's link to the master is made of;
// neither does the forked transport (forked_transport.cpp), written
// once against this interface. A SocketPipe is a connected stream
// socket -- a socketpair(2) end (kProcess) or a dialed loopback TCP
// connection (kTcp); a RingPipe is a pair of SPSC byte rings in pre-fork
// MAP_SHARED memory (kShm), one per direction.
//
// A pipe moves bytes, not frames: the reader cuts what arrived with a
// serde::FrameSplitter, so a frame written in parts -- a socket's short
// write, a frame longer than the ring -- comes out whole, and a writer
// that dies mid-frame leaves an incomplete frame nobody handles.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "runtime/serde.hpp"

namespace hmxp::runtime {

class BytePipe {
 public:
  virtual ~BytePipe() = default;

  /// Writes as many of the `size` bytes as fit now and returns how many
  /// (0 when the pipe is full). Throws PeerDisconnected once the peer's
  /// end is gone, std::runtime_error on any other failure.
  virtual std::size_t write_some(const std::uint8_t* data,
                                 std::size_t size) = 0;
  /// Moves every byte available now into `rx`. False once the peer
  /// closed its end; the bytes that came before the EOF are in `rx`.
  virtual bool read_into(serde::FrameSplitter& rx) = 0;
  /// Parks until the pipe has bytes to read -- or room to write, when
  /// `writable` -- or `timeout_ms` passed. Early returns are allowed;
  /// the caller looks again either way.
  virtual void park(bool writable, int timeout_ms) = 0;
};

/// A connected stream socket. Every call passes MSG_DONTWAIT, so the
/// fd's own blocking mode stays whatever the handshake needs.
class SocketPipe final : public BytePipe {
 public:
  explicit SocketPipe(int fd) : fd_(fd) {}
  int fd() const { return fd_; }

  std::size_t write_some(const std::uint8_t* data, std::size_t size) override;
  /// A reset connection reads as an EOF.
  bool read_into(serde::FrameSplitter& rx) override;
  void park(bool writable, int timeout_ms) override;

 private:
  int fd_;
};

/// Byte capacity of one ring direction. With payloads in arena slots a
/// frame is O(100) bytes -- O(plan steps) for chunks and results -- so
/// 16 KiB rarely fills, and a longer frame streams through in parts.
/// Kept small on purpose: every ring page is faulted in fresh each run,
/// so capacity is paid for in page faults, not just address space.
inline constexpr std::size_t kRingBytes = std::size_t{1} << 14;

/// Single-producer single-consumer byte ring, in MAP_SHARED memory when
/// it crosses a fork. Cursors run free (offset = cursor & (kRingBytes -
/// 1)) and double as futex words: a starved side advertises itself via
/// its waiting flag and parks, and the other side issues a wake syscall
/// only then -- the syscall count scales with stalls, not with frames.
struct SharedRing {
  std::atomic<std::uint32_t> head{0};          // producer commit cursor
  std::atomic<std::uint32_t> cons_waiting{0};  // consumer parked on head
  std::uint8_t pad0[56];
  std::atomic<std::uint32_t> tail{0};          // consumer cursor
  std::atomic<std::uint32_t> prod_waiting{0};  // producer parked on tail
  std::uint8_t pad1[56];
  std::uint8_t data[kRingBytes];

  /// Producer: appends as many of `size` bytes as fit; returns how many.
  std::size_t write(const std::uint8_t* bytes, std::size_t size);
  /// Consumer: moves every committed byte into `rx`.
  void read_into(serde::FrameSplitter& rx);
  /// Consumer: true when committed bytes wait to be read.
  bool readable() const {
    return head.load(std::memory_order_acquire) !=
           tail.load(std::memory_order_relaxed);
  }
  /// Parks the consumer while the ring is empty, the producer while it
  /// is full, at most `timeout_ms`. The seq_cst store of the waiting
  /// flag before the cursor re-check pairs with the other side's
  /// seq_cst cursor store before its flag load, so a wake-up is never
  /// lost; the kernel rechecks the cursor under the futex lock for the
  /// remaining window.
  void park_consumer(int timeout_ms);
  void park_producer(int timeout_ms);

 private:
  std::size_t free_bytes(std::uint32_t produced) const;
};

/// Both directions of one worker's rings.
struct RingChannel {
  SharedRing inbox;   // master -> worker: chunk, operand, cancel, goodbye
  SharedRing outbox;  // worker -> master: credits and results
};

/// The shm fleet's doorbell page, in MAP_SHARED memory created before
/// the first fork. The bell is a count every worker bumps on each write
/// to its outbox -- a credit or a result -- and on each death notice; a
/// master with nothing to do parks on it to wait for all its workers at
/// once. The per-worker rx hint says "I wrote a death notice to my
/// socket": the master's sweep reads that one word instead of a recv(2)
/// per sweep that almost always returns EAGAIN.
class SharedAckBoard {
 public:
  explicit SharedAckBoard(std::size_t workers);
  ~SharedAckBoard();
  SharedAckBoard(const SharedAckBoard&) = delete;
  SharedAckBoard& operator=(const SharedAckBoard&) = delete;

  /// Worker side: one event. The count always moves; the wake syscall
  /// fires only while a master is parked. Lose-free: the count moves
  /// before `waiters` is read, and wait_bell registers before it reads
  /// the count, both seq_cst, so one side always sees the other.
  void ring();
  std::uint32_t bell_count() const;
  /// Master side: sleeps until the bell moved past `seen` (read before
  /// the master checked its workers for news) or `timeout_ms` elapsed
  /// (a SIGKILL'd worker never rings, so the bound is what surfaces its
  /// death).
  void wait_bell(std::uint32_t seen, int timeout_ms);

  void raise_rx_hint(std::size_t worker);
  /// Master side: consumes the hint. Cleared BEFORE the socket is
  /// drained, so a notice that lands mid-drain re-raises it and costs
  /// at worst one extra (empty) read on the next sweep.
  bool take_rx_hint(std::size_t worker);
  bool rx_hint(std::size_t worker) const;

 private:
  struct alignas(64) Word {  // one cache line each
    std::atomic<std::uint32_t> value{0};
    std::atomic<std::uint32_t> waiters{0};  // the bell only
  };
  Word* words() const { return static_cast<Word*>(map_); }

  void* map_ = nullptr;  // [0] the bell, [1 + i] worker i's rx hint
  std::size_t bytes_ = 0;
};

/// One side of a worker's ring pair: it reads `in` and writes `out`. The
/// worker's side also rings `bell` on every write, so a master parked on
/// all its workers wakes for a credit or a result. A ring has no EOF:
/// the death of the other side arrives on its socket instead.
class RingPipe final : public BytePipe {
 public:
  RingPipe(SharedRing& in, SharedRing& out, SharedAckBoard* bell = nullptr)
      : in_(in), out_(out), bell_(bell) {}

  std::size_t write_some(const std::uint8_t* data, std::size_t size) override;
  bool read_into(serde::FrameSplitter& rx) override;
  /// Parks on one ring only: `out` for room when `writable`, else `in`.
  void park(bool writable, int timeout_ms) override;

 private:
  SharedRing& in_;
  SharedRing& out_;
  SharedAckBoard* bell_;
};

}  // namespace hmxp::runtime
