// ShmTransport: forked worker processes sharing one pre-fork mmap'd
// payload arena -- process isolation at thread-backend speed.
//
// Topology: the stream transport's fork model (the shared lifecycle in
// runtime/forked_worker.hpp), but the ENTIRE steady state lives in
// shared memory. Before the first fork the master creates three
// MAP_SHARED structures every child inherits at the same virtual
// address: a SharedArena of fixed 64-byte-aligned payload slots, a
// SharedAckBoard of per-worker dequeue counters (the credit scheme
// reduced to one atomic add), and a pair of SPSC byte rings per worker
// (inbox and outbox) with futex doorbells. The rings carry the frame
// stream a socket would, in the one serde format: the endpoint packs
// each C, A and B window the master lends into an arena slot, and the
// frame names the slot instead of carrying its bytes. The worker
// computes directly from -- and into -- the shared slots and names its
// C slot in the result it writes to its outbox ring; a kGoodbye frame
// on the inbox ring ends it. Zero payload copies AND zero syscalls per
// frame on the hot path; futexes fire only when a side is actually
// parked. The socketpair(2) per child remains, but only as the
// bootstrap and death channel: the hello -> ack handshake, a dying
// worker's error notice, and the EOF that announces a SIGKILL.
//
// Slot accounting is the run's second backpressure rule (alongside the
// credit scheme): the arena is sized so a full complement of in-flight
// messages always fits (16 slots per worker vs a worst case of ~7),
// but a master that somehow outruns it blocks in send while it packs,
// pumping its socket, until a slot frees. Slots are tagged with the
// worker they are bound for, which is what makes SIGKILL recovery
// exact: a dead child's outstanding slots -- including one it held
// mid-compute -- are reclaimed by Endpoint::drain via
// SharedArena::release_all_owned_by, so fault-tolerant reruns never
// leak arena capacity. Releases are single atomic exchanges, safe to
// race against that reclamation from either side of a SIGKILL.
#include <algorithm>
#include <atomic>
#include <climits>
#include <cstring>
#include <memory>
#include <new>
#include <stdexcept>
#include <span>
#include <string>
#include <vector>

#include <poll.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <unistd.h>
#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#include <ctime>
#endif

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
using serde::ByteBuffer;
using serde::FrameType;

/// Arena slots per worker. Worst case per worker is ~7 outstanding
/// (the resident C slot plus a full credit window of operand pairs);
/// 16 leaves slack for results in flight, and MAP_NORESERVE means
/// untouched slots never cost physical memory.
constexpr std::size_t kSlotsPerWorker = 16;

// ---- cross-process parking (futex) ------------------------------------------

#if defined(__linux__)
// FUTEX_WAIT / FUTEX_WAKE (NOT the _PRIVATE forms: the words live in
// MAP_SHARED memory and are touched from both sides of the fork).
void futex_wait_u32(std::atomic<std::uint32_t>* word, std::uint32_t seen,
                    int timeout_ms) {
  struct timespec ts;
  ts.tv_sec = timeout_ms / 1000;
  ts.tv_nsec = static_cast<long>(timeout_ms % 1000) * 1000000L;
  ::syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(word), FUTEX_WAIT,
            seen, timeout_ms < 0 ? nullptr : &ts, nullptr, 0);
}
void futex_wake_u32(std::atomic<std::uint32_t>* word) {
  ::syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(word), FUTEX_WAKE,
            INT_MAX, nullptr, nullptr, 0);
}
#else
// Portable fallback: bounded naps instead of a real parking lot.
void futex_wait_u32(std::atomic<std::uint32_t>* word, std::uint32_t seen,
                    int timeout_ms) {
  if (word->load(std::memory_order_acquire) != seen) return;
  ::poll(nullptr, 0, timeout_ms < 0 ? 1 : std::min(timeout_ms, 1));
}
void futex_wake_u32(std::atomic<std::uint32_t>*) {}
#endif

// ---- shared-memory credit board ---------------------------------------------

/// Per-worker dequeue counters in their own MAP_SHARED page, one
/// cache-line-padded lane per worker. The worker bumps its lane's
/// sequence as it pops a message from its inbox (the
/// credit-before-compute rule); the master compares the sequence
/// against its own send count to enforce the bounded inbox. This is
/// the credit frame of the stream transport reduced to a single atomic
/// add -- no syscall, no bytes on the socket. The lane doubles as a
/// cross-process condvar: a credit-starved master parks on the
/// sequence word with a (process-shared) futex, and the worker issues
/// a wake syscall ONLY when the lane's `waiting` flag says someone is
/// parked -- so the syscall count scales with master stalls, not with
/// messages. A last line holds the board's event bell: a count every
/// worker bumps on each dequeue, result and death notice, which a
/// master with nothing to do parks on to wait for all its workers at
/// once. Must be created BEFORE the first fork, like the arena.
class SharedAckBoard {
 public:
  explicit SharedAckBoard(std::size_t lanes) : lanes_(lanes) {
    bytes_ = (lanes + 1) * kLaneStride;
    map_ = ::mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                  MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    HMXP_CHECK(map_ != MAP_FAILED, "ack board mmap failed");
    for (std::size_t i = 0; i < lanes_; ++i) new (lane(i)) Lane{};
    new (bell()) Bell{};
  }
  ~SharedAckBoard() {
    if (map_ != nullptr && map_ != MAP_FAILED) ::munmap(map_, bytes_);
  }
  SharedAckBoard(const SharedAckBoard&) = delete;
  SharedAckBoard& operator=(const SharedAckBoard&) = delete;

  /// Worker side: one inbox message dequeued. The seq_cst add is a
  /// full fence on every supported target, so the `waiting` load
  /// cannot drift ahead of the increment -- the classic unlock/wake
  /// ordering that makes the park below lose-free. The wake fires only
  /// once the sequence reaches the parked master's stated threshold:
  /// waking it per ack would buy one frame of refill per context
  /// switch, and on a single hardware thread those switches are the
  /// dominant messaging cost.
  void add(std::size_t i) {
    Lane* entry = lane(i);
    const std::uint32_t now =
        entry->seq.fetch_add(1, std::memory_order_seq_cst) + 1;
    if (entry->waiting.load(std::memory_order_acquire) &&
        static_cast<std::int32_t>(
            now - entry->wake_at.load(std::memory_order_relaxed)) >= 0)
      futex_wake_u32(&entry->seq);
    ring();
  }

  /// Worker side: one event for a master waiting on all its workers (a
  /// dequeue, a committed result, a death notice). The count always
  /// moves; the wake syscall fires only while a master is parked.
  /// Lose-free by the same seq_cst pairing as park(): the count moves
  /// before `waiters` is read, and wait_bell registers before it reads
  /// the count, so one side always sees the other.
  void ring() {
    Bell* entry = bell();
    entry->count.fetch_add(1, std::memory_order_seq_cst);
    if (entry->waiters.load(std::memory_order_seq_cst) != 0)
      futex_wake_u32(&entry->count);
  }
  std::uint32_t bell_count() const {
    return bell()->count.load(std::memory_order_seq_cst);
  }
  /// Master side: sleeps until the bell moved past `seen` (read before
  /// the master checked its workers for news) or `timeout_ms` elapsed
  /// (a SIGKILL'd worker never rings, so the bound is what surfaces its
  /// death).
  void wait_bell(std::uint32_t seen, int timeout_ms) {
    Bell* entry = bell();
    entry->waiters.fetch_add(1, std::memory_order_seq_cst);
    if (entry->count.load(std::memory_order_seq_cst) == seen)
      futex_wait_u32(&entry->count, seen, timeout_ms);
    entry->waiters.fetch_sub(1, std::memory_order_seq_cst);
  }

  /// Master side: how many messages worker `i` has dequeued (mod 2^32;
  /// the in-flight window is tiny, so 32-bit wraparound math is exact).
  std::uint32_t read(std::size_t i) const {
    return lane(i)->seq.load(std::memory_order_acquire);
  }

  /// Worker side: "I just wrote a frame to my socket." The master's
  /// try_recv polls this word -- one shared-memory load -- instead of
  /// issuing a recv(2) per sweep that almost always returns EAGAIN.
  void raise_rx_hint(std::size_t i) {
    lane(i)->rx_hint.store(1, std::memory_order_release);
  }
  /// Master side: consumes the hint. Cleared BEFORE the socket is
  /// drained, so a frame that lands mid-drain re-raises it and costs
  /// at worst one extra (empty) pump on the next sweep.
  bool take_rx_hint(std::size_t i) {
    return lane(i)->rx_hint.exchange(0, std::memory_order_acquire) != 0;
  }
  bool rx_hint(std::size_t i) const {
    return lane(i)->rx_hint.load(std::memory_order_acquire) != 0;
  }

  /// Master side: sleeps until the lane's sequence reaches `target`
  /// (the hysteresis threshold -- the worker skips wakes below it) or
  /// `timeout_ms` elapses (the bound keeps worker death, which never
  /// acks, from parking the master forever). Spurious returns are
  /// fine -- the caller rechecks its credit window either way.
  void park(std::size_t i, std::uint32_t seen, std::uint32_t target,
            int timeout_ms) {
    Lane* entry = lane(i);
    entry->wake_at.store(target, std::memory_order_relaxed);
    entry->waiting.store(1, std::memory_order_seq_cst);
    // Re-check AFTER advertising the park (the seq_cst pair with add()
    // makes this lose-free), and let the kernel recheck seq == seen
    // under the futex lock for the remaining window.
    if (entry->seq.load(std::memory_order_seq_cst) == seen)
      futex_wait_u32(&entry->seq, seen, timeout_ms);
    entry->waiting.store(0, std::memory_order_relaxed);
  }

 private:
  struct Lane {
    std::atomic<std::uint32_t> seq{0};
    std::atomic<std::uint32_t> waiting{0};
    std::atomic<std::uint32_t> wake_at{0};
    std::atomic<std::uint32_t> rx_hint{0};
  };
  struct Bell {
    std::atomic<std::uint32_t> count{0};
    std::atomic<std::uint32_t> waiters{0};
  };
  static_assert(sizeof(std::atomic<std::uint32_t>) == 4,
                "futex needs a plain 32-bit word");
  static constexpr std::size_t kLaneStride = 64;  // one cache line each

  Lane* lane(std::size_t i) const {
    return reinterpret_cast<Lane*>(static_cast<std::uint8_t*>(map_) +
                                   i * kLaneStride);
  }
  Bell* bell() const {
    return reinterpret_cast<Bell*>(static_cast<std::uint8_t*>(map_) +
                                   lanes_ * kLaneStride);
  }

  void* map_ = nullptr;
  std::size_t bytes_ = 0;
  std::size_t lanes_ = 0;
};

// ---- shared-memory SPSC byte rings ------------------------------------------

/// Byte capacity of one ring direction. With payloads in the arena a
/// frame is O(100) bytes -- O(plan steps) for chunks and results -- so
/// 16 KiB rarely fills, and a longer frame streams through in parts.
/// Kept small on purpose: every ring page is faulted in fresh each run,
/// so capacity is paid for in page faults, not just address space.
constexpr std::size_t kRingBytes = std::size_t{1} << 14;

/// Single-producer single-consumer byte pipe in MAP_SHARED memory: the
/// steady-state data plane of the shm transport. It carries the frame
/// stream exactly as a socket does -- the producer writes what fits and
/// parks for the rest -- and the consumer cuts it with the same
/// serde::FrameSplitter, so a producer SIGKILL'd mid-frame leaves an
/// incomplete frame nobody dispatches. A kGoodbye frame ends a worker's
/// inbox stream. Cursors run free (offset = cursor & (kRingBytes - 1))
/// and double as futex words: a starved side advertises itself via its
/// waiting flag and parks, and the other side issues a wake syscall
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
  std::size_t write(const std::uint8_t* bytes, std::size_t size) {
    const std::uint32_t produced = head.load(std::memory_order_relaxed);
    const std::size_t count = std::min(size, free_bytes(produced));
    if (count == 0) return 0;
    copy_in(produced, bytes, count);
    head.store(produced + static_cast<std::uint32_t>(count),
               std::memory_order_seq_cst);
    if (cons_waiting.load(std::memory_order_seq_cst)) futex_wake_u32(&head);
    return count;
  }
  /// Producer: appends all `size` bytes, or none when they do not fit.
  bool write_all(const std::uint8_t* bytes, std::size_t size) {
    return free_bytes(head.load(std::memory_order_relaxed)) >= size &&
           write(bytes, size) == size;
  }

  /// Consumer: moves every committed byte into `rx`; false when there
  /// was none.
  bool read_into(serde::FrameSplitter& rx) {
    const std::uint32_t consumed = tail.load(std::memory_order_relaxed);
    const std::uint32_t produced = head.load(std::memory_order_acquire);
    const std::size_t count = produced - consumed;
    if (count == 0) return false;
    copy_out(consumed, rx.reserve(count), count);
    rx.commit(count);
    tail.store(produced, std::memory_order_seq_cst);
    if (prod_waiting.load(std::memory_order_seq_cst)) futex_wake_u32(&tail);
    return true;
  }

  /// Parks the consumer while the ring is empty (or until timeout; the
  /// seq_cst store/load pairing with write's commit makes the park
  /// lose-free, exactly like SharedAckBoard::park).
  void park_consumer(int timeout_ms) {
    cons_waiting.store(1, std::memory_order_seq_cst);
    const std::uint32_t consumed = tail.load(std::memory_order_relaxed);
    if (head.load(std::memory_order_seq_cst) == consumed)
      futex_wait_u32(&head, consumed, timeout_ms);
    cons_waiting.store(0, std::memory_order_relaxed);
  }
  /// Parks the producer while fewer than `needed` bytes are free (or
  /// until timeout).
  void park_producer(std::size_t needed, int timeout_ms) {
    prod_waiting.store(1, std::memory_order_seq_cst);
    const std::uint32_t consumed = tail.load(std::memory_order_seq_cst);
    if (kRingBytes - static_cast<std::uint32_t>(
                         head.load(std::memory_order_relaxed) - consumed) <
        needed)
      futex_wait_u32(&tail, consumed, timeout_ms);
    prod_waiting.store(0, std::memory_order_relaxed);
  }

 private:
  std::size_t free_bytes(std::uint32_t produced) const {
    return kRingBytes - static_cast<std::size_t>(
                            produced - tail.load(std::memory_order_acquire));
  }
  // Wrap-aware copies; cursors are free-running so the offset math is
  // a single mask.
  void copy_in(std::uint32_t at, const std::uint8_t* src, std::size_t n) {
    const std::size_t offset = at & (kRingBytes - 1);
    const std::size_t first = std::min(n, kRingBytes - offset);
    std::memcpy(data + offset, src, first);
    std::memcpy(data, src + first, n - first);
  }
  void copy_out(std::uint32_t at, std::uint8_t* dst, std::size_t n) const {
    const std::size_t offset = at & (kRingBytes - 1);
    const std::size_t first = std::min(n, kRingBytes - offset);
    std::memcpy(dst, data + offset, first);
    std::memcpy(dst + first, data, n - first);
  }
};

/// Both directions of one worker's data plane.
struct RingChannel {
  SharedRing inbox;   // master -> worker: chunk, operand, cancel, goodbye
  SharedRing outbox;  // worker -> master: results
};

/// The MAP_SHARED block holding every worker's ring pair. Created
/// before the first fork, like the arena and the ack board, so parent
/// and children address the same pages.
class SharedRingBlock {
 public:
  explicit SharedRingBlock(std::size_t workers) : count_(workers) {
    bytes_ = std::max<std::size_t>(count_, 1) * sizeof(RingChannel);
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
    for (std::size_t i = 0; i < count_; ++i) new (channel(i)) RingChannel;
  }
  ~SharedRingBlock() {
    if (map_ != nullptr && map_ != MAP_FAILED) ::munmap(map_, bytes_);
  }
  SharedRingBlock(const SharedRingBlock&) = delete;
  SharedRingBlock& operator=(const SharedRingBlock&) = delete;

  RingChannel* channel(std::size_t i) const {
    return reinterpret_cast<RingChannel*>(static_cast<std::uint8_t*>(map_) +
                                          i * sizeof(RingChannel));
  }

 private:
  void* map_ = nullptr;
  std::size_t bytes_ = 0;
  std::size_t count_ = 0;
};

// ---- child side -------------------------------------------------------------

/// The worker's face of the shm data plane: frames read from the inbox
/// ring and written to the outbox ring, slot references resolved
/// against the inherited arena -- zero syscalls per frame unless a side
/// is parked. The cancel lookahead (try_receive) may buffer the head of
/// a frame still arriving, but only a whole frame is ever decoded. The
/// inbox stream ends ONLY at the master's kGoodbye, which is latched like
/// the stream worker's: the lookahead may be the one to read it. Lives
/// entirely in the child process (which shares the mapped pages, not the
/// heap).
class ShmWorkerPort final : public WorkerPort {
 public:
  ShmWorkerPort(RingChannel* rings, SharedArena* arena, SharedAckBoard* acks,
                std::size_t index, BufferPool* pool,
                std::uint64_t max_frame_bytes)
      : rings_(rings),
        arena_(arena),
        acks_(acks),
        index_(index),
        pool_(pool),
        rx_(max_frame_bytes) {}

  std::optional<WorkerMessage> receive() override {
    std::optional<std::span<const std::uint8_t>> frame;
    // No whole frame yet: park on the head cursor. The bound is only a
    // belt -- PDEATHSIG reaps an orphan whose master crashed -- and a
    // spurious lap costs two shared-memory loads.
    while (!goodbye_ && !(frame = next_frame()))
      rings_->inbox.park_consumer(/*timeout_ms=*/100);
    return take(frame);
  }

  std::optional<WorkerMessage> try_receive() override {
    if (goodbye_) return std::nullopt;
    return take(next_frame());
  }

  void send(ResultMessage result) override {
    tx_.clear();
    serde::encode_result(result, tx_);
    SharedRing& outbox = rings_->outbox;
    for (std::size_t done = 0;;) {
      done += outbox.write(tx_.data() + done, tx_.size() - done);
      acks_->ring();  // a master waiting on all its workers reads it
      if (done == tx_.size()) break;
      outbox.park_producer(/*needed=*/1, /*timeout_ms=*/100);
    }
    // The frame is whole in the ring: the C slot belongs to the master
    // now. Detach AFTER the write so an unwind mid-send still releases
    // the slot (the master's crash reclamation tolerates the benign
    // race).
    result.c.detach();
  }

 private:
  /// The next whole frame the inbox delivered, if any.
  std::optional<std::span<const std::uint8_t>> next_frame() {
    rings_->inbox.read_into(rx_);
    return rx_.next();
  }

  /// Decodes `frame` (shared tail of receive and try_receive): credit
  /// returned before computing, like a channel pop -- a single atomic
  /// add the master reads through shared memory.
  std::optional<WorkerMessage> take(
      std::optional<std::span<const std::uint8_t>> frame) {
    if (!frame) return std::nullopt;
    auto message =
        serde::decode_inbound(frame->data(), frame->size(), *pool_, arena_);
    if (message)
      acks_->add(index_);
    else
      goodbye_ = true;
    return message;
  }

  RingChannel* rings_;
  SharedArena* arena_;
  SharedAckBoard* acks_;
  std::size_t index_;
  BufferPool* pool_;
  serde::FrameSplitter rx_;
  ByteBuffer tx_;
  bool goodbye_ = false;
};

/// Child-process entry: handshake over the socketpair, then serve the
/// rings. The arena object itself arrives via the inherited heap; its
/// PAGES are MAP_SHARED, so the child's slot releases are the master's
/// slot releases. A death notice also raises the rx hint so the master
/// reads it on its next sweep.
[[noreturn]] void run_child(int fd, std::uint64_t token,
                            const WorkerContext& context, RingChannel* rings,
                            SharedArena* arena, SharedAckBoard* acks,
                            std::size_t index,
                            const matrix::KernelConfig& config,
                            std::uint64_t max_frame_bytes) {
  run_worker_child(
      config,
      [&](BufferPool& pool) {
        // The private pool only ever serves scratch buffers (the
        // slowdown emulation): every protocol payload lives in the arena.
        handshake(fd, token);
        ShmWorkerPort port(rings, arena, acks, index, &pool, max_frame_bytes);
        worker_main(context, port, pool);
      },
      [&](const std::string& what) {
        send_error_notice(fd, what);
        acks->raise_rx_hint(index);
        acks->ring();
      });
}

// ---- master side ------------------------------------------------------------

class ShmEndpoint final : public ForkedEndpoint {
 public:
  ShmEndpoint(int index, pid_t pid, std::uint64_t token, std::size_t capacity,
              const serde::HelloFrame& expected_hello, RingChannel* rings,
              SharedArena* arena, SharedAckBoard* acks, BufferPool* pool,
              TransportStats* stats, std::uint64_t max_frame_bytes)
      : ForkedEndpoint(index, pid, token, expected_hello, stats, pool,
                       max_frame_bytes, arena),
        capacity_(capacity),
        rings_(rings),
        acks_(acks),
        ring_rx_(max_frame_bytes) {}

  // ----- Endpoint -----
  void send(WorkerMessage message) override {
    throw_if_dead();
    // The lent windows move into arena slots first: that packing is the
    // only copy a payload ever sees on this transport.
    std::size_t payload_bytes = 0;
    for_each_payload(message, [&](Payload& payload) {
      payload = pack(payload);
      payload_bytes += payload.size() * sizeof(double);
    });
    // The bounded-inbox rule, checked BEFORE the frame is committed:
    // at most `capacity_` frames may sit unacknowledged in the
    // worker's inbox. Acks arrive through the shared board, so a
    // starved master parks on the lane's futex (the worker wakes it
    // the moment it dequeues) with a bound that keeps a SIGKILL'd
    // child -- which will never ack -- from parking us past the next
    // death-detection pump.
    const auto lane = static_cast<std::size_t>(index_);
    std::uint32_t acked = acks_->read(lane);
    if (static_cast<std::uint32_t>(sent_) - acked >= capacity_) {
      // Ask to be woken only once TWO slots are free (when the window
      // is that deep): refilling one frame per wake costs a context
      // switch per frame, and the worker still holds a queued frame to
      // chew on while the master tops the window back up.
      const std::uint32_t refill =
          static_cast<std::uint32_t>(std::min<std::size_t>(capacity_, 2));
      const std::uint32_t target =
          static_cast<std::uint32_t>(sent_) - capacity_ + refill;
      while (!failed() &&
             static_cast<std::uint32_t>(sent_) - acked >= capacity_) {
        acks_->park(lane, acked, target, /*timeout_ms=*/10);
        pump_rings();   // a worker parked on a full outbox cannot ack
        gated_pump();   // death notices keep flowing (at most 1/ms)
        acked = acks_->read(lane);
      }
      throw_if_dead();
    }

    encode(message);

    // Detach BEFORE the frame goes out: once its last byte lands the
    // worker may decode, use and release the slots at any moment, so
    // the master must have relinquished them already. If the worker
    // dies with the frame unread, drain()'s owner-tag sweep reclaims
    // them.
    for_each_payload(message, [](Payload& payload) { payload.detach(); });
    push_inbox();
    ++sent_;
    ++stats_->messages_sent;
    stats_->bytes_sent += tx_.size();
    stats_->bytes_zero_copied += payload_bytes;
  }

  bool can_send() const override {
    return static_cast<std::uint32_t>(sent_) -
               acks_->read(static_cast<std::size_t>(index_)) <
           capacity_;
  }

  /// Whether `await` holds: bytes in the outbox ring (or a result
  /// already decoded), or a free inbox slot -- or the worker died, or
  /// raised its rx hint for a death notice on the socket.
  bool holds(const Await& await) const {
    const SharedRing& outbox = rings_->outbox;
    const bool news =
        await.result
            ? !results_.empty() ||
                  outbox.head.load(std::memory_order_acquire) !=
                      outbox.tail.load(std::memory_order_relaxed)
            : can_send();
    return news || failed() ||
           acks_->rx_hint(static_cast<std::size_t>(index_));
  }

  std::optional<ResultMessage> try_recv() override {
    pump_rings();
    if (results_.empty() && !failed()) {
      // Results arrive through the ring (drained above with zero
      // syscalls); the socket carries only error notices and the EOF
      // that announces death, so it is pumped at most once per
      // millisecond (or on the worker's rx hint).
      gated_pump();
    }
    return pop_result();
  }

  std::optional<ResultMessage> recv() override {
    pump_rings();
    gated_pump();
    while (results_.empty() && !failed()) {
      // Park on the outbox cursor; the worker's write wakes us. The
      // bound exists because a SIGKILL'd child never writes -- its EOF,
      // found by the gated pump below, is what breaks the wait.
      rings_->outbox.park_consumer(/*timeout_ms=*/10);
      pump_rings();
      gated_pump();
    }
    return pop_result();
  }

  /// Reclaims everything a decommissioned worker still held: queued
  /// results release their slots back to the arena, then every slot
  /// still TAGGED with this worker -- inbox messages it never dequeued,
  /// the chunk it was computing into when the SIGKILL landed, a result
  /// it wrote only part of -- is swept back in one pass.
  /// The caller has already released any pending result it extracted
  /// from this endpoint, so the sweep cannot double-free a live slot.
  void drain(BufferPool& pool) override {
    drained_ = true;
    ForkedEndpoint::drain(pool);
    ring_rx_.clear();
    // The rings are left untouched: frames still sitting in them
    // reference slots tagged with this worker, so the sweep below
    // reclaims those too, and a decommissioned endpoint never reads its
    // rings again (pump_rings guards on drained_).
    arena_->release_all_owned_by(static_cast<std::uint32_t>(index_));
  }

  // ----- transport-internal -----
  void begin_shutdown() noexcept {
    discarding_ = true;
    if (fd_ >= 0 && !killed() && !failed() && !drained_) {
      // The goodbye ends the worker's inbox stream, written whole or
      // not at all. Bounded retries -- a worker that died with a full
      // inbox will never make room; its EOF ends the wait in
      // finish_shutdown instead.
      tx_.clear();
      serde::encode_control(FrameType::kGoodbye, tx_);
      SharedRing& inbox = rings_->inbox;
      for (int attempt = 0; attempt < 1000; ++attempt) {
        if (inbox.write_all(tx_.data(), tx_.size())) break;
        if (failed() || eof_) break;
        pump_rings();
        inbox.park_producer(tx_.size(), /*timeout_ms=*/1);
      }
    }
    if (fd_ >= 0 && !killed()) ::shutdown(fd_, SHUT_WR);
  }

  void finish_shutdown() noexcept {
    discarding_ = true;
    if (fd_ >= 0) {
      try {
        // Bounded waits: the ring pump inside is what lets a worker
        // parked on a full outbox drain, finish and close.
        while (!eof_ && !failed()) wait_io_and_rings(/*timeout_ms=*/10);
      } catch (...) {
        // Corrupt trailing frames on a teardown path are ignorable.
      }
    }
    teardown();
  }

 private:
  /// Copies `window` into an arena slot tagged with this worker: the
  /// worker reads it where the master put it. Blocks (pumping the
  /// socket, so death and credits keep flowing) while the arena is
  /// saturated -- arena capacity is part of the backpressure rule.
  Payload pack(const Payload& window) {
    HMXP_CHECK(window.size() <= arena_->slot_doubles(),
               "payload exceeds the arena slot size");
    for (;;) {
      if (auto slot =
              arena_->try_acquire(static_cast<std::uint32_t>(index_))) {
        window.copy_to(slot->data);
        return Payload::arena_view(arena_, slot->index, slot->data,
                                   window.size());
      }
      throw_if_dead();
      // A full arena frees through worker progress (slot releases are
      // shared-memory stores -- no frame announces them): drain queued
      // results and nap briefly, re-checking for death each lap.
      wait_io_and_rings(/*timeout_ms=*/1);
    }
  }

  /// Writes the frame encoded in tx_ to the worker's inbox ring,
  /// parking on the tail cursor whenever the ring is full (a frame
  /// longer than the ring goes in parts, as the worker reads them).
  /// Throws if the worker is (or turns out to be) dead.
  void push_inbox() {
    SharedRing& inbox = rings_->inbox;
    std::size_t done = 0;
    while ((done += inbox.write(tx_.data() + done, tx_.size() - done)) <
           tx_.size()) {
      throw_if_dead();
      pump_rings();  // a worker parked writing results cannot read
      inbox.park_producer(/*needed=*/1, /*timeout_ms=*/10);
      pump();  // a dead worker will never drain the ring
    }
  }

  /// Reads the worker's outbox ring through its frame splitter: every
  /// whole frame is delivered (while discarding, dropped -- which
  /// releases its arena slot), an incomplete one waits for the rest.
  /// Two shared-memory loads when the ring is empty; never a syscall. A
  /// decommissioned endpoint's rings are never read: their frames
  /// reference slots drain() already swept.
  void pump_rings() {
    if (killed() || drained_) return;
    if (rings_->outbox.read_into(ring_rx_)) deliver(ring_rx_);
  }

  /// Socket pump rate-limited to the death-detection budget: drains
  /// the socket when the worker raised its rx hint (it wrote an error
  /// frame) or when a millisecond passed since the last look (a
  /// SIGKILL'd child raises no hint -- only an EOF).
  void gated_pump() {
    const auto now = Clock::now();
    if (acks_->take_rx_hint(static_cast<std::size_t>(index_)) ||
        now - last_pump_ >= std::chrono::milliseconds(1)) {
      last_pump_ = now;
      pump();
    }
  }

  /// The socket wait with the rings drained on both sides of it.
  void wait_io_and_rings(int timeout_ms) {
    pump_rings();
    wait_io(/*want_write=*/false, timeout_ms);
    pump_rings();
  }

  std::size_t capacity_;
  std::uint64_t sent_ = 0;
  RingChannel* rings_;
  SharedAckBoard* acks_;
  serde::FrameSplitter ring_rx_;  // the outbox ring's bytes
  Clock::time_point last_pump_{};
  bool drained_ = false;
};

class ShmTransport final : public Transport {
 public:
  ShmTransport(int workers, std::size_t inbox_capacity,
               const ExecutorOptions& options, Clock::time_point run_begin,
               BufferPool* pool, std::size_t max_payload_doubles)
      // The arena, ack board and rings MUST exist before the first
      // fork: MAP_SHARED pages created here are the ones every child
      // inherits.
      : arena_(static_cast<std::size_t>(workers) * kSlotsPerWorker,
               std::max<std::size_t>(max_payload_doubles, 1)),
        acks_(static_cast<std::size_t>(workers)),
        rings_(static_cast<std::size_t>(workers)),
        endpoint_stats_(static_cast<std::size_t>(workers)) {
    // Capture the kernel configuration in the master, before any fork;
    // children re-assert and answer for exactly this state.
    const matrix::KernelConfig config = matrix::current_kernel_config();
    const serde::HelloFrame expected_hello = serde::local_hello(config);
    const std::uint64_t max_frame_bytes =
        serde::max_frame_bytes_for(max_payload_doubles);

    const auto count = static_cast<std::size_t>(workers);
    SocketPairs pairs(count);
    try {
      endpoints_.reserve(count);
      for (std::size_t i = 0; i < count; ++i) {
        const WorkerContext context =
            make_worker_context(options, static_cast<int>(i), run_begin);
        const std::uint64_t token = acceptor_.token(i);
        const pid_t pid = fork_worker(pairs.foreign_to(i));
        if (pid == 0)
          run_child(pairs.child_end(i), token, context, rings_.channel(i),
                    &arena_, &acks_, i, config,
                    max_frame_bytes);  // never returns
        acceptor_.admit(pairs.release_master(i));
        endpoints_.push_back(std::make_unique<ShmEndpoint>(
            static_cast<int>(i), pid, token, inbox_capacity, expected_hello,
            rings_.channel(i), &arena_, &acks_, pool, &endpoint_stats_[i],
            max_frame_bytes));
      }
    } catch (...) {
      shutdown();
      throw;
    }
    for (auto& endpoint : endpoints_) endpoint->wait_hello(acceptor_);
  }

  ~ShmTransport() override { shutdown(); }

  TransportKind kind() const override { return TransportKind::kShm; }
  int worker_count() const override {
    return static_cast<int>(endpoints_.size());
  }
  Endpoint& endpoint(int worker) override {
    HMXP_REQUIRE(worker >= 0 &&
                     static_cast<std::size_t>(worker) < endpoints_.size(),
                 "worker index out of range");
    return *endpoints_[static_cast<std::size_t>(worker)];
  }

  /// Parks on the ack board's bell, which every worker rings, so any
  /// worker's event -- another job's too -- ends the wait. The bell is
  /// read before the checks: a worker moves its ring or ack count
  /// before it rings, so an event the checks missed has moved the bell
  /// past `seen`. At most 10 ms at a time, like every other shm park: a
  /// SIGKILL'd child never rings, and the master's next sweep pumps its
  /// socket for the EOF.
  void wait_any(const std::vector<Await>& awaits,
                std::chrono::milliseconds timeout) override {
    const std::uint32_t seen = acks_.bell_count();
    for (const Await& await : awaits)
      if (endpoints_[static_cast<std::size_t>(await.worker)]->holds(await))
        return;
    acks_.wait_bell(seen, static_cast<int>(std::min<std::int64_t>(
                              timeout.count(), /*ms=*/10)));
  }

  void shutdown() noexcept override {
    for (auto& endpoint : endpoints_) endpoint->begin_shutdown();
    for (auto& endpoint : endpoints_) endpoint->finish_shutdown();
    acceptor_.close_all();
    if (!leak_recorded_) {
      // Every child is reaped: any slot still held is a reclamation
      // bug the stats must expose (tests assert this is 0). The final
      // sweep keeps the arena's own shutdown assertion quiet so the
      // one loud failure is the test's.
      leaked_slots_ = arena_.in_use();
      arena_.release_all();
      leak_recorded_ = true;
    }
  }

  TransportStats stats() const override {
    TransportStats stats;
    for (const TransportStats& slot : endpoint_stats_) stats += slot;
    const SharedArena::Stats arena = arena_.stats();
    stats.arena_slots = arena_.slot_count();
    stats.arena_peak_slots = arena.peak_in_use;
    stats.arena_leaked_slots =
        leak_recorded_ ? leaked_slots_ : arena.in_use;
    return stats;
  }

 private:
  // Declared before the endpoints: they hold arena, ack-board, ring,
  // acceptor and stats-slot pointers, so all five must outlive them on
  // every destruction path. One stats slot per endpoint (stable
  // addresses, never resized) so concurrent fleet jobs never race on a
  // counter.
  SharedArena arena_;
  SharedAckBoard acks_;
  SharedRingBlock rings_;
  Acceptor acceptor_;
  std::vector<TransportStats> endpoint_stats_;
  std::vector<std::unique_ptr<ShmEndpoint>> endpoints_;
  std::size_t leaked_slots_ = 0;
  bool leak_recorded_ = false;
};

}  // namespace

std::unique_ptr<Transport> make_shm_transport(
    int workers, std::size_t inbox_capacity, const ExecutorOptions& options,
    std::chrono::steady_clock::time_point run_begin, BufferPool* pool,
    std::size_t max_payload_doubles) {
  return std::make_unique<ShmTransport>(workers, inbox_capacity, options,
                                        run_begin, pool, max_payload_doubles);
}

}  // namespace hmxp::runtime
