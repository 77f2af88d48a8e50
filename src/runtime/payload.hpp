// Payload storage for one element window moving through the data
// plane. Three homes, one type:
//
//   * OWNED -- a heap vector checked out of a BufferPool: the private C
//     a thread worker accumulates into, and every payload a stream
//     decoder hands out (master or worker side).
//   * ARENA VIEW -- a (pointer, length) window into a SharedArena slot.
//     The shm transport packs payloads straight into shared slots,
//     workers compute directly from (and into) them, and a frame names
//     the slot instead of carrying its bytes.
//   * LENT WINDOW -- a read-only rows x cols window of the master's A, B
//     or C, `ld` doubles between row starts: no copy at all. The
//     executor sends nothing else, and each endpoint's send decides how
//     a window travels (runtime/transport.hpp): a thread worker reads A
//     and B in place, a stream encodes the rows straight into its frame,
//     shm packs them into an arena slot.
//
// The loan rule: a lent window is read only while its lender waits.
// Every window counts itself in its lender's Loans from lend() until it
// is released, detached or destroyed, whichever comes first. A Loans
// waits for its count to reach zero before it goes away, and a run
// holds its own until it is done, so execute_online and
// execute_on_fleet neither return nor rethrow while a worker can still
// read a window they lent: their caller may free A, B and C at once.
//
// worker_main, the executor and the transports all speak Payload.
// Releasing is polymorphic: release_to(pool) recycles owned storage
// into the pool, returns an arena view's slot to its arena and a lent
// window's loan to its lender.
//
// Move-only, and self-releasing on destruction: a payload dropped on an
// error path (an unwinding worker, a master rolling a decision back)
// frees its arena slot and returns its loan instead of leaking them.
// detach() breaks the slot tie for the one case where ownership really
// crosses the process boundary (a frame handing the slot to the peer).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "matrix/matrix.hpp"
#include "util/check.hpp"

namespace hmxp::runtime {

class BufferPool;
class SharedArena;

/// A lender's count of the windows it has out (Payload::lend). What it
/// lent must stay alive and unwritten until the count is back to zero,
/// and the count outlives every loan: its destructor waits for them.
class Loans {
 public:
  Loans() = default;
  Loans(const Loans&) = delete;
  Loans& operator=(const Loans&) = delete;
  ~Loans();

  std::size_t outstanding() const { return count_.load(); }

 private:
  friend class Payload;
  std::atomic<std::size_t> count_{0};
};

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
  /// `window` lent, counted in `loans` until the payload lets it go.
  static Payload lend(matrix::ConstView window, Loans& loans);

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

  /// Dense storage of an owned payload or an arena view; a lent window
  /// has none (read it through view() or copy_to()).
  double* data() {
    HMXP_CHECK(!lent(), "a lent window is read-only and strided");
    return arena_ != nullptr ? data_ : owned_.data();
  }
  const double* data() const {
    HMXP_CHECK(!lent(), "a lent window is strided: use view()");
    return arena_ != nullptr ? data_ : owned_.data();
  }
  std::size_t size() const {
    return arena_ != nullptr || lent() ? size_ : owned_.size();
  }
  bool empty() const { return size() == 0; }
  bool in_arena() const { return arena_ != nullptr; }
  bool lent() const { return loans_ != nullptr; }
  std::uint32_t slot() const { return slot_; }

  /// The elements as a rows x cols read-only view: a lent window keeps
  /// its lender's leading dimension, the other homes are dense. Throws
  /// if the payload does not hold exactly that shape.
  matrix::ConstView view(std::size_t rows, std::size_t cols) const;

  /// Calls `row(data, count)` for each run of contiguous elements, in
  /// row-major order: one call for the dense homes, one per row for a
  /// lent window.
  template <typename Row>
  void for_each_row(Row&& row) const {
    if (!lent()) {
      if (size() > 0) row(data(), size());
      return;
    }
    for (std::size_t i = 0; i < rows_; ++i) row(window_ + i * ld_, cols_);
  }

  /// Writes the elements densely, row-major, to `out` (size() doubles).
  void copy_to(double* out) const;

  /// Returns the storage for reuse: owned vectors to `pool`, arena
  /// views to their arena, lent windows' loans to their lender. The
  /// payload is empty afterwards.
  void release_to(BufferPool& pool);

  /// Forgets an arena view WITHOUT releasing the slot: the slot's
  /// ownership just crossed the process boundary inside a frame, and
  /// the peer (or the master's crash reclamation) is now
  /// responsible for it. Owned storage is simply dropped, and a lent
  /// window returns its loan.
  void detach();

  /// Element-wise comparison across homes, for tests and parity checks.
  friend bool operator==(const Payload& lhs, const Payload& rhs);

 private:
  void steal(Payload& other) {
    owned_ = std::move(other.owned_);
    data_ = other.data_;
    size_ = other.size_;
    arena_ = other.arena_;
    slot_ = other.slot_;
    window_ = other.window_;
    rows_ = other.rows_;
    cols_ = other.cols_;
    ld_ = other.ld_;
    loans_ = other.loans_;
    other.owned_.clear();
    other.data_ = nullptr;
    other.size_ = 0;
    other.arena_ = nullptr;
    other.slot_ = 0;
    other.window_ = nullptr;
    other.loans_ = nullptr;
  }
  void reset();
  /// A lent window's last act: after the decrement the lender may free
  /// both the window and the count, so neither is touched again.
  void return_loan();

  std::vector<double> owned_;
  double* data_ = nullptr;
  std::size_t size_ = 0;
  SharedArena* arena_ = nullptr;
  std::uint32_t slot_ = 0;
  // Lent window only.
  const double* window_ = nullptr;
  std::size_t rows_ = 0, cols_ = 0, ld_ = 0;
  Loans* loans_ = nullptr;
};

}  // namespace hmxp::runtime
