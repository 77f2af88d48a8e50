// Bounded MPSC channel used for master-worker message passing in the
// threaded runtime. The bound is semantically load-bearing: a worker's
// operand channel has capacity prefetch_depth + 1, so a master pushing
// past a worker's buffer capacity blocks -- the same "master waits for
// the worker to free a buffer" rule the simulator's engine enforces.
#pragma once

#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>

#include "util/check.hpp"

namespace hmxp::runtime {

template <typename T>
class Channel {
 public:
  explicit Channel(std::size_t capacity) : capacity_(capacity) {
    HMXP_REQUIRE(capacity >= 1, "channel capacity must be positive");
  }

  /// Blocks while the channel is full; fails if the channel was closed.
  void push(T value) {
    std::unique_lock lock(mutex_);
    not_full_.wait(lock, [&] { return queue_.size() < capacity_ || closed_; });
    HMXP_CHECK(!closed_, "push on closed channel");
    queue_.push_back(std::move(value));
    not_empty_.notify_one();
  }

  // GCC 12's -O3 uninitialized-use analysis reports false positives on
  // the moved-from std::variant payload when these pops inline into the
  // worker loop (the move constructors fully initialize the value; the
  // runtime is ASan/UBSan/TSan-clean). Scope-suppress, don't disable
  // the diagnostic globally.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

  /// Non-blocking pop: a value if one is queued, nullopt otherwise
  /// (empty or closed-and-drained). The online master uses this to
  /// drain actual completion messages between scheduler decisions.
  std::optional<T> try_pop() {
    std::lock_guard lock(mutex_);
    if (queue_.empty()) return std::nullopt;
    T value = std::move(queue_.front());
    queue_.pop_front();
    not_full_.notify_one();
    return value;
  }

  /// Blocks until a value or close; nullopt means closed-and-drained.
  std::optional<T> pop() {
    std::unique_lock lock(mutex_);
    not_empty_.wait(lock, [&] { return !queue_.empty() || closed_; });
    if (queue_.empty()) return std::nullopt;
    T value = std::move(queue_.front());
    queue_.pop_front();
    not_full_.notify_one();
    return value;
  }

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

  /// Wakes all waiters; subsequent pops drain then return nullopt.
  void close() {
    std::lock_guard lock(mutex_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  std::size_t capacity() const { return capacity_; }

  /// True while a push() would block (the queue is at capacity).
  bool full() const {
    std::lock_guard lock(mutex_);
    return queue_.size() >= capacity_;
  }
  bool empty() const {
    std::lock_guard lock(mutex_);
    return queue_.empty();
  }

 private:
  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> queue_;
  bool closed_ = false;
};

}  // namespace hmxp::runtime
