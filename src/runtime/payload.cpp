#include "runtime/payload.hpp"

#include <chrono>
#include <cstring>
#include <thread>

#include "runtime/buffer_pool.hpp"
#include "runtime/shared_arena.hpp"
#include "util/check.hpp"

namespace hmxp::runtime {

Loans::~Loans() {
  // A returned loan is a bare atomic decrement that rings no one (its
  // lender may go the moment it reads zero), so look again every
  // millisecond.
  while (outstanding() != 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

Payload Payload::arena_view(SharedArena* arena, std::uint32_t slot,
                            double* data, std::size_t size) {
  HMXP_REQUIRE(arena != nullptr, "arena view needs an arena");
  Payload payload;
  payload.arena_ = arena;
  payload.slot_ = slot;
  payload.data_ = data;
  payload.size_ = size;
  return payload;
}

Payload Payload::lend(matrix::ConstView window, Loans& loans) {
  Payload payload;
  payload.window_ = window.data();
  payload.rows_ = window.rows();
  payload.cols_ = window.cols();
  payload.ld_ = window.stride();
  payload.size_ = window.rows() * window.cols();
  payload.loans_ = &loans;
  ++loans.count_;
  return payload;
}

matrix::ConstView Payload::view(std::size_t rows, std::size_t cols) const {
  if (lent()) {
    HMXP_CHECK(rows == rows_ && cols == cols_, "lent window shape mismatch");
    return matrix::ConstView(window_, rows_, cols_, ld_);
  }
  HMXP_CHECK(rows * cols == size(), "payload shape mismatch");
  return matrix::ConstView(data(), rows, cols, cols);
}

void Payload::copy_to(double* out) const {
  for_each_row([&out](const double* row, std::size_t count) {
    std::memcpy(out, row, count * sizeof(double));
    out += count;
  });
}

bool operator==(const Payload& lhs, const Payload& rhs) {
  if (lhs.size() != rhs.size()) return false;
  std::vector<double> a(lhs.size()), b(rhs.size());
  lhs.copy_to(a.data());
  rhs.copy_to(b.data());
  return a == b;
}

void Payload::release_to(BufferPool& pool) {
  if (lent()) {
    return_loan();
    return;
  }
  if (arena_ != nullptr) {
    arena_->release(slot_);
    arena_ = nullptr;
    data_ = nullptr;
    size_ = 0;
    slot_ = 0;
    return;
  }
  pool.release(std::move(owned_));
  owned_.clear();
}

void Payload::detach() {
  if (lent()) return_loan();
  owned_.clear();
  owned_.shrink_to_fit();
  data_ = nullptr;
  size_ = 0;
  arena_ = nullptr;
  slot_ = 0;
}

void Payload::reset() {
  // The destructor's backstop: an arena slot must never leak, nor a
  // loan stay out, just because its payload unwound (the owning
  // BufferPool is out of reach here, so owned storage simply frees).
  if (lent()) return_loan();
  if (arena_ != nullptr) {
    arena_->release(slot_);
    arena_ = nullptr;
  }
  data_ = nullptr;
  size_ = 0;
  slot_ = 0;
}

void Payload::return_loan() {
  Loans* loans = loans_;
  loans_ = nullptr;
  window_ = nullptr;
  size_ = 0;
  --loans->count_;
}

}  // namespace hmxp::runtime
