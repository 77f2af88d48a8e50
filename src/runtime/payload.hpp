// Payload storage for one dense element window moving through the data
// plane. Two homes, one type:
//
//   * OWNED -- a heap vector checked out of the run's BufferPool. The
//     thread transport moves it by value (zero-copy in-process), the
//     stream transport serializes it into socket frames.
//   * ARENA VIEW -- a (pointer, length) window into a SharedArena slot.
//     The shm transport's master packs operand panels straight into
//     shared slots, workers compute directly from (and into) them, and
//     only (slot, length) descriptors ever cross the control socket:
//     the payload bytes are never copied after the initial pack-out.
//
// worker_main, the executor and the transports all speak Payload, so
// the SAME master loop and worker protocol run zero-copy or serialized
// depending only on which transport allocated the storage. Releasing is
// polymorphic too: release_to(pool) recycles owned storage into the
// pool and returns an arena view's slot to its arena.
//
// Move-only, and self-releasing on destruction: a payload dropped on an
// error path (an unwinding worker, a master rolling a decision back)
// frees its arena slot instead of leaking it. detach() breaks that tie
// for the one case where ownership really crosses the process boundary
// (a descriptor frame handing the slot to the peer).
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <vector>

namespace hmxp::runtime {

class BufferPool;
class SharedArena;

class Payload {
 public:
  Payload() = default;
  /*implicit*/ Payload(std::vector<double>&& owned)
      : owned_(std::move(owned)) {}
  /*implicit*/ Payload(std::initializer_list<double> values)
      : owned_(values) {}

  /// A view of `size` doubles in `arena`'s slot `slot` at `data`.
  static Payload arena_view(SharedArena* arena, std::uint32_t slot,
                            double* data, std::size_t size);

  Payload(Payload&& other) noexcept { steal(other); }
  Payload& operator=(Payload&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }
  Payload(const Payload&) = delete;
  Payload& operator=(const Payload&) = delete;
  ~Payload() { reset(); }

  double* data() { return arena_ != nullptr ? data_ : owned_.data(); }
  const double* data() const {
    return arena_ != nullptr ? data_ : owned_.data();
  }
  std::size_t size() const {
    return arena_ != nullptr ? size_ : owned_.size();
  }
  bool empty() const { return size() == 0; }
  bool in_arena() const { return arena_ != nullptr; }
  std::uint32_t slot() const { return slot_; }

  /// Returns the storage for reuse: owned vectors to `pool`, arena
  /// views to their arena. The payload is empty afterwards.
  void release_to(BufferPool& pool);

  /// Forgets an arena view WITHOUT releasing the slot: the slot's
  /// ownership just crossed the process boundary inside a descriptor
  /// frame, and the peer (or the master's crash reclamation) is now
  /// responsible for it. Owned storage is simply dropped.
  void detach();

  /// Element-wise comparison, for tests and parity checks.
  friend bool operator==(const Payload& lhs, const Payload& rhs) {
    if (lhs.size() != rhs.size()) return false;
    const double* a = lhs.data();
    const double* b = rhs.data();
    for (std::size_t i = 0; i < lhs.size(); ++i)
      if (a[i] != b[i]) return false;
    return true;
  }

 private:
  void steal(Payload& other) {
    owned_ = std::move(other.owned_);
    data_ = other.data_;
    size_ = other.size_;
    arena_ = other.arena_;
    slot_ = other.slot_;
    other.owned_.clear();
    other.data_ = nullptr;
    other.size_ = 0;
    other.arena_ = nullptr;
    other.slot_ = 0;
  }
  void reset();

  std::vector<double> owned_;
  double* data_ = nullptr;
  std::size_t size_ = 0;
  SharedArena* arena_ = nullptr;
  std::uint32_t slot_ = 0;
};

}  // namespace hmxp::runtime
