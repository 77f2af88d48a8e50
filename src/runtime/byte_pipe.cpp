#include "runtime/byte_pipe.hpp"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstring>
#include <new>
#include <stdexcept>
#include <string>

#include <poll.h>
#include <sys/mman.h>
#include <sys/socket.h>
#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>
#include <ctime>
#endif

#include "runtime/socket_util.hpp"
#include "util/check.hpp"

namespace hmxp::runtime {

namespace {

static_assert(sizeof(std::atomic<std::uint32_t>) == 4,
              "futex needs a plain 32-bit word");

#if defined(__linux__)
// FUTEX_WAIT / FUTEX_WAKE (NOT the _PRIVATE forms: the words live in
// MAP_SHARED memory and are touched from both sides of the fork).
void futex_wait_u32(std::atomic<std::uint32_t>* word, std::uint32_t seen,
                    int timeout_ms) {
  struct timespec ts;
  ts.tv_sec = timeout_ms / 1000;
  ts.tv_nsec = static_cast<long>(timeout_ms % 1000) * 1000000L;
  ::syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(word), FUTEX_WAIT,
            seen, &ts, nullptr, 0);
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
  ::poll(nullptr, 0, std::min(timeout_ms, 1));
}
void futex_wake_u32(std::atomic<std::uint32_t>*) {}
#endif

}  // namespace

// ---- SocketPipe -------------------------------------------------------------

std::size_t SocketPipe::write_some(const std::uint8_t* data,
                                   std::size_t size) {
  for (;;) {
    const ssize_t n = ::send(fd_, data, size, MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n >= 0) return static_cast<std::size_t>(n);
    if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
    if (errno == EPIPE || errno == ECONNRESET)
      throw PeerDisconnected("peer closed the connection mid-write");
    if (errno != EINTR)
      throw std::runtime_error(std::string("socket write failed: ") +
                               std::strerror(errno));
  }
}

bool SocketPipe::read_into(serde::FrameSplitter& rx) {
  constexpr std::size_t kChunk = 1 << 16;
  for (;;) {
    const ssize_t n = ::recv(fd_, rx.reserve(kChunk), kChunk, MSG_DONTWAIT);
    if (n > 0) {
      rx.commit(static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < kChunk) return true;
      continue;
    }
    if (n == 0 || errno == ECONNRESET) return false;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno != EINTR)
      throw std::runtime_error(std::string("socket read failed: ") +
                               std::strerror(errno));
  }
}

void SocketPipe::park(bool writable, int timeout_ms) {
  pollfd entry{fd_, static_cast<short>(POLLIN | (writable ? POLLOUT : 0)),
               0};
  if (::poll(&entry, 1, timeout_ms) < 0 && errno != EINTR)
    throw std::runtime_error(std::string("poll failed: ") +
                             std::strerror(errno));
}

// ---- SharedRing -------------------------------------------------------------

std::size_t SharedRing::write(const std::uint8_t* bytes, std::size_t size) {
  const std::uint32_t produced = head.load(std::memory_order_relaxed);
  const std::size_t count = std::min(size, free_bytes(produced));
  if (count == 0) return 0;
  // Wrap-aware copy; free-running cursors make the offset one mask.
  const std::size_t offset = produced & (kRingBytes - 1);
  const std::size_t first = std::min(count, kRingBytes - offset);
  std::memcpy(data + offset, bytes, first);
  std::memcpy(data, bytes + first, count - first);
  head.store(produced + static_cast<std::uint32_t>(count),
             std::memory_order_seq_cst);
  if (cons_waiting.load(std::memory_order_seq_cst)) futex_wake_u32(&head);
  return count;
}

void SharedRing::read_into(serde::FrameSplitter& rx) {
  const std::uint32_t consumed = tail.load(std::memory_order_relaxed);
  const std::uint32_t produced = head.load(std::memory_order_acquire);
  const std::size_t count = produced - consumed;
  if (count == 0) return;
  std::uint8_t* out = rx.reserve(count);
  const std::size_t offset = consumed & (kRingBytes - 1);
  const std::size_t first = std::min(count, kRingBytes - offset);
  std::memcpy(out, data + offset, first);
  std::memcpy(out + first, data, count - first);
  rx.commit(count);
  tail.store(produced, std::memory_order_seq_cst);
  if (prod_waiting.load(std::memory_order_seq_cst)) futex_wake_u32(&tail);
}

void SharedRing::park_consumer(int timeout_ms) {
  cons_waiting.store(1, std::memory_order_seq_cst);
  const std::uint32_t consumed = tail.load(std::memory_order_relaxed);
  if (head.load(std::memory_order_seq_cst) == consumed)
    futex_wait_u32(&head, consumed, timeout_ms);
  cons_waiting.store(0, std::memory_order_relaxed);
}

void SharedRing::park_producer(int timeout_ms) {
  prod_waiting.store(1, std::memory_order_seq_cst);
  const std::uint32_t consumed = tail.load(std::memory_order_seq_cst);
  if (free_bytes(head.load(std::memory_order_relaxed)) == 0)
    futex_wait_u32(&tail, consumed, timeout_ms);
  prod_waiting.store(0, std::memory_order_relaxed);
}

std::size_t SharedRing::free_bytes(std::uint32_t produced) const {
  return kRingBytes - static_cast<std::size_t>(
                          produced - tail.load(std::memory_order_acquire));
}

// ---- SharedAckBoard ---------------------------------------------------------

SharedAckBoard::SharedAckBoard(std::size_t workers)
    : bytes_((workers + 1) * sizeof(Word)) {
  map_ = ::mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  HMXP_CHECK(map_ != MAP_FAILED, "ack board mmap failed");
  for (std::size_t i = 0; i <= workers; ++i) new (&words()[i]) Word{};
}

SharedAckBoard::~SharedAckBoard() {
  if (map_ != nullptr && map_ != MAP_FAILED) ::munmap(map_, bytes_);
}

void SharedAckBoard::ring() {
  Word& bell = words()[0];
  bell.value.fetch_add(1, std::memory_order_seq_cst);
  if (bell.waiters.load(std::memory_order_seq_cst) != 0)
    futex_wake_u32(&bell.value);
}

std::uint32_t SharedAckBoard::bell_count() const {
  return words()[0].value.load(std::memory_order_seq_cst);
}

void SharedAckBoard::wait_bell(std::uint32_t seen, int timeout_ms) {
  Word& bell = words()[0];
  bell.waiters.fetch_add(1, std::memory_order_seq_cst);
  if (bell.value.load(std::memory_order_seq_cst) == seen)
    futex_wait_u32(&bell.value, seen, timeout_ms);
  bell.waiters.fetch_sub(1, std::memory_order_seq_cst);
}

void SharedAckBoard::raise_rx_hint(std::size_t worker) {
  words()[1 + worker].value.store(1, std::memory_order_release);
}

bool SharedAckBoard::take_rx_hint(std::size_t worker) {
  return words()[1 + worker].value.exchange(0, std::memory_order_acquire) !=
         0;
}

bool SharedAckBoard::rx_hint(std::size_t worker) const {
  return words()[1 + worker].value.load(std::memory_order_acquire) != 0;
}

// ---- RingPipe ---------------------------------------------------------------

std::size_t RingPipe::write_some(const std::uint8_t* data, std::size_t size) {
  const std::size_t written = out_.write(data, size);
  if (bell_ != nullptr && written > 0) bell_->ring();
  return written;
}

bool RingPipe::read_into(serde::FrameSplitter& rx) {
  in_.read_into(rx);
  return true;
}

void RingPipe::park(bool writable, int timeout_ms) {
  if (writable)
    out_.park_producer(timeout_ms);
  else
    in_.park_consumer(timeout_ms);
}

}  // namespace hmxp::runtime
